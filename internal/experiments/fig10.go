package experiments

import (
	"fmt"

	"coherentleak/internal/covert"
	"coherentleak/internal/ecc"
	"coherentleak/internal/machine"
)

// Fig10Point is one bar group of Figure 10 for a scenario: the raw rate
// without error correction, and the effective rate with the parity+NACK
// retransmission scheme at a noise level.
type Fig10Point struct {
	Scenario        string
	NoiseThreads    int     // 0 = none, 4 = medium, 8 = high
	RawKbps         float64 // no-ECC rate at the same operating point, quiet
	EffectiveKbps   float64
	Retransmissions int
	Recovered       bool
}

// Fig10NoiseLevels are the paper's none/medium/high settings.
func Fig10NoiseLevels() []int { return []int{0, 4, 8} }

// Fig10Params is the whole-packet-retransmission operating point: a
// go-back protocol only works when a 528-bit frame usually arrives
// intact, so the adversary rate-adapts to a redundancy-heavy, slower
// configuration (more repetitions per symbol absorb preemption bursts;
// the MinRun filter rejects isolated queuing flips).
func Fig10Params() covert.Params {
	p := covert.DefaultParams()
	p.C1 = 6
	p.C0 = 3
	p.Cb = 4
	p.Ts = 3800
	p.MinRun = 3
	p.EndRun = 16
	return p
}

// Fig10ECC measures the retransmission protocol's effective rate for one
// scenario across noise levels, transferring payloadPackets 64-byte
// packets.
func Fig10ECC(cfg machine.Config, sc covert.Scenario, levels []int, payloadPackets int, seed uint64) ([]Fig10Point, error) {
	bands, err := calibrate(cfg, seed)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, payloadPackets*ecc.PacketBytes)
	r := PatternBits(seed^0x1010, len(payload)*8)
	for i := range payload {
		var v byte
		for j := 0; j < 8; j++ {
			v = v<<1 | r[i*8+j]
		}
		payload[i] = v
	}

	// Baseline raw rate on the quiet machine at the same operating point.
	quiet := covert.Channel{
		Config: cfg, Scenario: sc, Params: Fig10Params(),
		Mode: covert.ShareExplicit, WorldSeed: seed + 5, PatternSeed: seed,
		Bands: &bands,
	}
	rawRes, err := quiet.Run(PatternBits(seed^0x2020, 528))
	if err != nil {
		return nil, err
	}

	out := make([]Fig10Point, 0, len(levels))
	for i, n := range levels {
		ch := covert.Channel{
			Config: cfg, Scenario: sc, Params: Fig10Params(),
			Mode: covert.ShareExplicit, WorldSeed: seed + uint64(i)*131, PatternSeed: seed,
			Bands:  &bands,
			PreRun: withNoise(n),
		}
		p := ecc.NewProtocol(ch)
		res, err := p.Send(payload)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s n=%d: %w", sc.Name(), n, err)
		}
		out = append(out, Fig10Point{
			Scenario:        sc.Name(),
			NoiseThreads:    n,
			RawKbps:         rawRes.RawKbps,
			EffectiveKbps:   res.EffectiveKbps,
			Retransmissions: res.Retransmissions,
			Recovered:       res.Recovered,
		})
	}
	return out, nil
}
