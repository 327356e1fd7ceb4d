package experiments

import (
	"fmt"

	"coherentleak/internal/covert"
	"coherentleak/internal/machine"
)

// Fig11Prefix is the paper's 18-bit demonstration prefix.
func Fig11Prefix() []byte {
	return []byte{1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1}
}

// Fig11MultiBit runs the demonstration of Figure 11, the 2-bit-symbol
// channel's reception trace: the 18-bit prefix (100101000110011011,
// which exercises all four symbols) followed by extraBits payload bits,
// at the default multi-bit operating point.
func Fig11MultiBit(cfg machine.Config, extraBits int, seed uint64) (*covert.MultiBitResult, error) {
	bits := append(Fig11Prefix(), PatternBits(seed^0x1111, extraBits-extraBits%2)...)
	ch := &covert.MultiBitChannel{
		Config:      cfg,
		Params:      covert.DefaultMultiBitParams(),
		Mode:        covert.ShareKSM,
		WorldSeed:   seed,
		PatternSeed: seed ^ 0xfeed,
	}
	return ch.Run(bits)
}

// PeakRates searches the achievable peak rates reported in the paper's
// abstract: the best binary-channel rate and the best 2-bit-symbol rate
// holding raw accuracy at or above minAccuracy.
type PeakRates struct {
	BinaryKbps   float64
	BinaryName   string
	MultiBitKbps float64
}

// FindPeakRates sweeps operating points and returns the fastest
// configurations that keep accuracy >= minAccuracy.
func FindPeakRates(cfg machine.Config, minAccuracy float64, payloadBits int, seed uint64) (*PeakRates, error) {
	bands, err := calibrate(cfg, seed)
	if err != nil {
		return nil, err
	}
	bits := PatternBits(seed^0x3333, payloadBits-payloadBits%2)

	out := &PeakRates{}
	for _, sc := range covert.Scenarios {
		for _, target := range Fig8Targets() {
			ch := covert.Channel{
				Config: cfg, Scenario: sc, Params: covert.ParamsForRate(cfg, sc, target),
				Mode: covert.ShareExplicit, WorldSeed: seed + uint64(target), PatternSeed: seed,
				Bands: &bands,
			}
			res, err := ch.Run(bits)
			if err != nil {
				return nil, fmt.Errorf("peak sweep %s@%v: %w", sc.Name(), target, err)
			}
			if res.Accuracy >= minAccuracy && res.RawKbps > out.BinaryKbps {
				out.BinaryKbps = res.RawKbps
				out.BinaryName = sc.Name()
			}
		}
	}
	for _, target := range []float64{600, 800, 1000, 1100, 1200, 1400} {
		ch := covert.MultiBitChannel{
			Config: cfg, Params: covert.MultiBitParamsForRate(cfg, target),
			Mode: covert.ShareExplicit, WorldSeed: seed + uint64(target) + 71, PatternSeed: seed,
			Bands: &bands,
		}
		res, err := ch.Run(bits)
		if err != nil {
			return nil, fmt.Errorf("multibit peak sweep @%v: %w", target, err)
		}
		if res.Accuracy >= minAccuracy && res.RawKbps > out.MultiBitKbps {
			out.MultiBitKbps = res.RawKbps
		}
	}
	return out, nil
}
