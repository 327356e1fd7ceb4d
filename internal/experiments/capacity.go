package experiments

import (
	"fmt"

	"coherentleak/internal/capacity"
	"coherentleak/internal/covert"
	"coherentleak/internal/machine"
)

// CapacityPoint quantifies the §II TCSEC discussion for one operating
// point: the usable information rate after accounting for the measured
// error structure, and its Orange Book classification. (TCSEC calls
// ≥100 bits/sec "high bandwidth"; the paper's channels exceed that by
// three to four orders of magnitude.)
type CapacityPoint struct {
	Scenario     string
	TargetKbps   float64
	NoiseThreads int
	RawKbps      float64
	FlipRate     float64
	LostRate     float64
	ExtraRate    float64
	InfoKbps     float64
	TCSEC        string
}

// CapacityTable measures information rates for one scenario across a
// rate x noise grid.
func CapacityTable(cfg machine.Config, sc covert.Scenario, targets []float64, noiseLevels []int, payloadBits int, seed uint64) ([]CapacityPoint, error) {
	var out []CapacityPoint
	for i, target := range targets {
		pts, err := CapacityColumn(cfg, sc, target, i, noiseLevels, payloadBits, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}

// CapacityColumn measures one target rate's column of the capacity grid
// (every noise level at that rate). targetIndex is the rate's position
// in the swept targets; it keeps the per-cell world seeds identical to
// the whole-grid sweep, so decomposed runs reproduce the same numbers.
func CapacityColumn(cfg machine.Config, sc covert.Scenario, target float64, targetIndex int, noiseLevels []int, payloadBits int, seed uint64) ([]CapacityPoint, error) {
	bits := PatternBits(seed^0xCA9A, payloadBits)
	bands, err := calibrate(cfg, seed)
	if err != nil {
		return nil, err
	}
	out := make([]CapacityPoint, 0, len(noiseLevels))
	for j, n := range noiseLevels {
		ch := covert.Channel{
			Config:      cfg,
			Scenario:    sc,
			Params:      covert.ParamsForRate(cfg, sc, target),
			Mode:        covert.ShareExplicit,
			WorldSeed:   seed + uint64(targetIndex)*97 + uint64(j)*13,
			PatternSeed: seed,
			Bands:       &bands,
			PreRun:      withNoise(n),
		}
		res, err := ch.Run(bits)
		if err != nil {
			return nil, fmt.Errorf("capacity %s @%v n=%d: %w", sc.Name(), target, n, err)
		}
		rep := capacity.Analyze(res.TxBits, res.RxBits, res.RawKbps)
		flip, lost, extra := rep.Errors.Rates()
		out = append(out, CapacityPoint{
			Scenario:     sc.Name(),
			TargetKbps:   target,
			NoiseThreads: n,
			RawKbps:      res.RawKbps,
			FlipRate:     flip,
			LostRate:     lost,
			ExtraRate:    extra,
			InfoKbps:     rep.InfoKbps,
			TCSEC:        string(rep.TCSEC),
		})
	}
	return out, nil
}
