// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated testbed. Each Fig*/Table* function returns
// typed rows; the cmd/experiments binary renders them as TSV, and the
// repository-root benchmarks wrap them for `go test -bench`.
package experiments

import (
	"fmt"

	"coherentleak/internal/covert"
	"coherentleak/internal/machine"
	"coherentleak/internal/noise"
	"coherentleak/internal/sim"
)

// Defaults shared by the experiment entry points.
const (
	// DefaultSeed pins every experiment's determinism.
	DefaultSeed = 20180224 // HPCA 2018 opened Feb 24, 2018
)

// PatternBits returns n deterministic pseudo-random bits for payloads.
func PatternBits(seed uint64, n int) []byte {
	r := sim.NewRand(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.Uint64() & 1)
	}
	return out
}

// calibrate measures the bands every channel run of one experiment
// cell shares, 200 samples per band, as both parties would once before
// communicating.
func calibrate(cfg machine.Config, seed uint64) (covert.Bands, error) {
	return covert.Calibrate(cfg, seed+7777, 200, covert.BandMargin)
}

// withNoise is the PreRun hook that co-locates n kernel-build noise
// threads with the trojan and the spy.
func withNoise(n int) func(*covert.Session) {
	return func(s *covert.Session) {
		if err := noise.CoLocate(s, n); err != nil {
			panic(err)
		}
	}
}

// Fig6Pattern is the 100-bit pattern the trojan transmits in Figures 6-7.
func Fig6Pattern() []byte { return PatternBits(DefaultSeed^0x66, 100) }

// RatePoint is one x/y point of Figure 8.
type RatePoint struct {
	TargetKbps   float64
	MeasuredKbps float64
	Accuracy     float64
	Params       covert.Params
}

// Fig8Targets are the swept bit rates (Kbps), the paper's 100..1000 axis.
func Fig8Targets() []float64 {
	return []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
}

// Fig8RateSweep measures raw-bit accuracy against attempted bit rate for
// one scenario (one subplot of Figure 8).
func Fig8RateSweep(cfg machine.Config, sc covert.Scenario, targets []float64, payloadBits int, seed uint64) ([]RatePoint, error) {
	bits := PatternBits(seed^0x88, payloadBits)
	bands, err := calibrate(cfg, seed)
	if err != nil {
		return nil, err
	}
	out := make([]RatePoint, 0, len(targets))
	for i, target := range targets {
		p := covert.ParamsForRate(cfg, sc, target)
		ch := &covert.Channel{
			Config:      cfg,
			Scenario:    sc,
			Params:      p,
			Mode:        covert.ShareExplicit,
			WorldSeed:   seed + uint64(i)*31,
			PatternSeed: seed,
			Bands:       &bands,
		}
		res, err := ch.Run(bits)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s @%v: %w", sc.Name(), target, err)
		}
		out = append(out, RatePoint{
			TargetKbps:   target,
			MeasuredKbps: res.RawKbps,
			Accuracy:     res.Accuracy,
			Params:       p,
		})
	}
	return out, nil
}
