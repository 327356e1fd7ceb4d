package experiments

import (
	"fmt"
	"testing"

	"coherentleak/internal/covert"
	"coherentleak/internal/machine"
)

// TestDebugTrace doubles as a smoke test and an inspection aid: it runs
// one mid-rate transmission and logs the spy's classified reception
// trace (visible with -v), the calibrated bands, and the decode.
func TestDebugTrace(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	cfg := machine.DefaultConfig()
	sc := covert.Scenarios[0]
	p := covert.ParamsForRate(cfg, sc, 400)
	t.Logf("params: %+v threshold=%v", p, p.Threshold())
	bands, err := calibrate(cfg, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for pl, b := range bands.ByPlacement {
		t.Logf("band %v: %v", pl, b)
	}
	t.Logf("dram: %v", bands.DRAM)
	bits := PatternBits(DefaultSeed^0x88, 12)
	ch := &covert.Channel{
		Config: cfg, Scenario: sc, Params: p,
		Mode: covert.ShareExplicit, WorldSeed: DefaultSeed, PatternSeed: DefaultSeed,
		Bands: &bands,
	}
	res, err := ch.Run(bits)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tx=%v", bits)
	t.Logf("rx=%v acc=%v", res.RxBits, res.Accuracy)
	line := ""
	for i, s := range res.Samples {
		line += fmt.Sprintf("%s%d ", s.Class, s.Latency)
		if (i+1)%16 == 0 {
			t.Log(line)
			line = ""
		}
	}
	t.Log(line)
}
