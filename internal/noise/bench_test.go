package noise

import (
	"runtime"
	"testing"

	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// benchKCycles is how many thousand simulated cycles one
// BenchmarkNoiseKCycles iteration runs.
const benchKCycles = 2000

// runNoiseKCycles drives the default eight-thread kernel-build workload
// on a fresh default machine for benchKCycles thousand cycles under a
// deadline drive (the fused executor's production setting).
func runNoiseKCycles(tb testing.TB) {
	w := sim.NewWorld(sim.Config{Seed: 1})
	k := kernel.New(machine.New(w, machine.DefaultConfig()), 0)
	nw, err := Attach(k, DefaultConfig(8))
	if err != nil {
		tb.Fatal(err)
	}
	err = w.RunUntilDeadline(benchKCycles*1000, nil)
	nw.Stop()
	w.Drain()
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkNoiseKCycles measures the §VIII-C noise on its own: one op is
// one runNoiseKCycles run; kcycle_us reports host microseconds per 1000
// simulated cycles.
func BenchmarkNoiseKCycles(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runNoiseKCycles(b)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/benchKCycles, "kcycle_us")
}

// maxNoiseKCyclesBytes bounds what one runNoiseKCycles run allocates.
// The noise touches nearly every set of the 12288-set LLC, so the LLC's
// line metadata is most of it: about 8.9 MB with 8-byte cache lines,
// 11.5 MB with 16-byte ones.
const maxNoiseKCyclesBytes = 10 << 20

func TestNoiseKCyclesAllocationBound(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runNoiseKCycles(t)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxNoiseKCyclesBytes {
		t.Fatalf("2,000 kcycles of default noise allocate %d B, want <= %d B", got, maxNoiseKCyclesBytes)
	}
}
