package machine_test

import (
	"testing"

	"coherentleak/internal/cache"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/noise"
	"coherentleak/internal/sim"
)

// The line table keeps a record only for a line some core holds
// privately (or one with meta), never for a line only an LLC holds:
// that mark lives on the LLC's own line. The default eight-thread noise
// streams far more lines through the LLCs than the cores' L2s can hold,
// so sampling the table during a run gates its size on a count: records
// without meta never exceed the machine's private L2 lines.
func TestLineTableHoldsOnlyPrivateCopies(t *testing.T) {
	const (
		kcycles = 4000
		every   = 100 // kcycles between samples
	)
	cfg := machine.DefaultConfig()
	w := sim.NewWorld(sim.Config{Seed: 1})
	m := machine.New(w, cfg)
	nw, err := noise.Attach(kernel.New(m, 0), noise.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Drain()
	defer nw.Stop()
	limit := cfg.Cores() * cfg.L2.SizeBytes / cache.LineSize
	peak := 0
	for k := sim.Cycles(every); k <= kcycles; k += every {
		if err := w.RunUntilDeadline(k*1000, nil); err != nil {
			t.Fatal(err)
		}
		n := m.LineRecordsWithoutMeta()
		if n > limit {
			t.Fatalf("at %d kcycles: %d records without meta, more than the %d private L2 lines", k, n, limit)
		}
		peak = max(peak, n)
	}
	t.Logf("peak %d records without meta (limit %d)", peak, limit)
}
