package experiments

import (
	"fmt"

	"coherentleak/internal/covert"
	"coherentleak/internal/machine"
)

// NoisePoint is one bar of Figure 9: raw-bit accuracy for a scenario
// under a given number of co-located kernel-build threads.
type NoisePoint struct {
	Scenario     string
	NoiseThreads int
	Accuracy     float64
	MeasuredKbps float64
}

// Fig9NoiseLevels are the swept kernel-build thread counts.
func Fig9NoiseLevels() []int { return []int{0, 1, 2, 4, 6, 8} }

// Fig9Noise measures raw-bit accuracy for one scenario across noise
// levels, at the reliable default operating point (the paper runs the
// noise study at a fixed transmission configuration).
func Fig9Noise(cfg machine.Config, sc covert.Scenario, levels []int, payloadBits int, seed uint64) ([]NoisePoint, error) {
	bits := PatternBits(seed^0x99, payloadBits)
	bands, err := calibrate(cfg, seed)
	if err != nil {
		return nil, err
	}
	out := make([]NoisePoint, 0, len(levels))
	for i, n := range levels {
		ch := &covert.Channel{
			Config:      cfg,
			Scenario:    sc,
			Params:      covert.DefaultParams(),
			Mode:        covert.ShareExplicit,
			WorldSeed:   seed + uint64(i)*67,
			PatternSeed: seed,
			Bands:       &bands,
			PreRun:      withNoise(n),
		}
		res, err := ch.Run(bits)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s n=%d: %w", sc.Name(), n, err)
		}
		out = append(out, NoisePoint{
			Scenario:     sc.Name(),
			NoiseThreads: n,
			Accuracy:     res.Accuracy,
			MeasuredKbps: res.RawKbps,
		})
	}
	return out, nil
}
