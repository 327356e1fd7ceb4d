package machine

import (
	"testing"

	"coherentleak/internal/sim"
)

// benchLoop runs body b.N times on a fresh machine inside a sim thread,
// with the timer reset after warmup so setup and spawn costs are excluded.
func benchLoop(b *testing.B, warm, body func(t *sim.Thread, m *Machine, i int)) {
	b.Helper()
	w := sim.NewWorld(sim.Config{Seed: 1})
	m := New(w, DefaultConfig())
	done := false
	w.Spawn("bench", func(t *sim.Thread) {
		warm(t, m, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body(t, m, i)
		}
		done = true
	})
	if err := w.RunUntil(func() bool { return done }); err != nil {
		b.Fatal(err)
	}
	w.Drain()
}

// BenchmarkLoadHit measures the per-access fast path: a repeated L1 hit.
// The acceptance bar for the flat-layout refactor is ~0 allocs/op.
func BenchmarkLoadHit(b *testing.B) {
	const addr = 0x1000
	benchLoop(b,
		func(t *sim.Thread, m *Machine, _ int) { m.Load(t, 0, addr) },
		func(t *sim.Thread, m *Machine, _ int) { m.Load(t, 0, addr) },
	)
}

// BenchmarkLoadMiss measures the steady-state miss path: the working set
// cycles through more lines than L2 holds (256 KiB = 4096 lines) but far
// fewer than the LLC (12 MiB), so after warmup every load misses the
// private caches and is serviced by the local LLC. Also ~0 allocs/op.
func BenchmarkLoadMiss(b *testing.B) {
	const (
		base  = uint64(0x100000)
		lines = 8192 // 512 KiB working set: 2x L2, 1/24 of the LLC
	)
	addr := func(i int) uint64 { return base + uint64(i%lines)*64 }
	benchLoop(b,
		func(t *sim.Thread, m *Machine, _ int) {
			for i := 0; i < lines; i++ {
				m.Load(t, 0, addr(i))
			}
		},
		func(t *sim.Thread, m *Machine, i int) { m.Load(t, 0, addr(i)) },
	)
}

// BenchmarkStoreRFO measures the cross-core invalidation path: core 1
// stores a line core 0 keeps re-sharing.
func BenchmarkStoreRFO(b *testing.B) {
	const addr = 0x2000
	benchLoop(b,
		func(t *sim.Thread, m *Machine, _ int) { m.Load(t, 0, addr) },
		func(t *sim.Thread, m *Machine, _ int) {
			m.Load(t, 0, addr)
			m.Store(t, 1, addr)
		},
	)
}

// BenchmarkMachineNew measures building a default-config machine: every
// covert run, calibration band and ECC retransmission builds a fresh
// one, so construction is on the harness's hot path.
func BenchmarkMachineNew(b *testing.B) {
	w := sim.NewWorld(sim.Config{Seed: 1})
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchMachine = New(w, cfg)
	}
}

// benchMachine keeps BenchmarkMachineNew's result live.
var benchMachine *Machine

// maxMachineNewBytes bounds what BenchmarkMachineNew may allocate per
// machine. The caches' slot pages and the TLBs' entries are allocated on
// first use, so a default-config machine costs about 10 KB; the bound
// leaves room for growth but fails if construction zeroes a per-set
// table or a TLB per core.
const maxMachineNewBytes = 32 << 10

func TestMachineNewAllocationBound(t *testing.T) {
	if got := testing.Benchmark(BenchmarkMachineNew).AllocedBytesPerOp(); got > maxMachineNewBytes {
		t.Fatalf("machine.New allocates %d B, want <= %d B", got, maxMachineNewBytes)
	}
}
