package experiments

import (
	"fmt"
	"testing"

	"coherentleak/internal/covert"
	"coherentleak/internal/machine"
	"coherentleak/internal/noise"
)

// TestDebugNoisyTrace inspects a transmission under 8-thread noise at
// the Figure 10 operating point (trace visible with -v).
func TestDebugNoisyTrace(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	cfg := machine.DefaultConfig()
	sc := covert.Scenarios[1] // RExclc-RSharedb
	p := Fig10Params()
	bands, err := calibrate(cfg, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	bits := PatternBits(DefaultSeed^0x88, 528)
	ch := covert.Channel{
		Config: cfg, Scenario: sc, Params: p,
		Mode: covert.ShareExplicit, WorldSeed: DefaultSeed, PatternSeed: DefaultSeed,
		Bands: &bands,
		PreRun: func(s *covert.Session) {
			if err := noise.CoLocate(s, 8); err != nil {
				panic(err)
			}
			t.Logf("osNoiseProb=%v", s.OSNoiseProb)
		},
	}
	res, err := ch.Run(bits)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("acc=%v rx=%d bits vs tx=%d", res.Accuracy, len(res.RxBits), len(res.TxBits))
	line := ""
	for i, s := range res.Samples {
		line += fmt.Sprintf("%s%d ", s.Class, s.Latency)
		if (i+1)%20 == 0 {
			t.Log(line)
			line = ""
		}
		if i > 240 {
			break
		}
	}
	t.Log(line)
}
