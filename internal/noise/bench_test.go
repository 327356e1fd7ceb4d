package noise

import (
	"testing"

	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// benchKCycles is how many thousand simulated cycles one
// BenchmarkNoiseKCycles iteration runs.
const benchKCycles = 2000

// BenchmarkNoiseKCycles measures the §VIII-C noise on its own: the
// default eight-thread kernel-build workload on a fresh default machine,
// driven for 2,000 kcycles under a deadline drive (the fused executor's
// production setting). One op is one such run; kcycle_us reports host
// microseconds per 1000 simulated cycles.
func BenchmarkNoiseKCycles(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := sim.NewWorld(sim.Config{Seed: 1})
		k := kernel.New(machine.New(w, machine.DefaultConfig()), 0)
		nw, err := Attach(k, DefaultConfig(8))
		if err != nil {
			b.Fatal(err)
		}
		err = w.RunUntilDeadline(benchKCycles*1000, nil)
		nw.Stop()
		w.Drain()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/benchKCycles, "kcycle_us")
}
