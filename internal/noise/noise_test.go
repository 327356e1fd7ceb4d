package noise

import (
	"testing"

	"coherentleak/internal/covert"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

func newKern(t *testing.T) *kernel.Kernel {
	t.Helper()
	w := sim.NewWorld(sim.Config{Seed: 5})
	return kernel.New(machine.New(w, machine.DefaultConfig()), 0)
}

func TestAttachZeroThreads(t *testing.T) {
	k := newKern(t)
	w, err := Attach(k, DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if w.Threads() != 0 {
		t.Fatal("threads spawned for zero config")
	}
}

func TestAttachRejectsBadConfig(t *testing.T) {
	k := newKern(t)
	if _, err := Attach(k, Config{Threads: -1}); err == nil {
		t.Fatal("negative threads accepted")
	}
	if _, err := Attach(k, Config{Threads: 1, WorkingSetPages: 0, OpsPerPhase: 1}); err == nil {
		t.Fatal("zero working set accepted")
	}
}

func TestWorkloadGeneratesTraffic(t *testing.T) {
	k := newKern(t)
	cfg := DefaultConfig(4)
	cfg.WorkingSetPages = 64 // keep setup cheap
	w, err := Attach(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Threads() != 4 {
		t.Fatalf("threads = %d", w.Threads())
	}
	world := k.World()
	if err := world.RunUntil(func() bool { return world.Now() > 200_000 }); err != nil {
		t.Fatal(err)
	}
	if w.Ops < 1000 {
		t.Fatalf("only %d ops after 200k cycles", w.Ops)
	}
	loads := k.Machine().Stats.Loads
	stores := k.Machine().Stats.Stores
	if loads == 0 || stores == 0 {
		t.Fatalf("workload is not mixed: loads=%d stores=%d", loads, stores)
	}
	w.Stop()
	world.Drain()
}

func TestSpreadCoresAvoidsAttackCoresFirst(t *testing.T) {
	k := newKern(t)
	cores := spreadCores(k, 7) // 7 spare cores exist (3,4,5,8,9,10,11)
	attack := map[int]bool{0: true, 1: true, 2: true, 6: true, 7: true}
	for i, c := range cores {
		if attack[c] {
			t.Errorf("noise thread %d placed on attack core %d with spares free", i, c)
		}
	}
	// The 8th thread must double up somewhere.
	cores = spreadCores(k, 8)
	if len(cores) != 8 {
		t.Fatal("wrong core count")
	}
}

func TestCoLocationPressure(t *testing.T) {
	k := newKern(t)
	// 12 cores, 5 reserved -> 7 spare.
	if p := CoLocationPressure(k, 6); p != 0 {
		t.Fatalf("pressure with spare cores = %v", p)
	}
	if p := CoLocationPressure(k, 8); p <= 0 {
		t.Fatalf("no pressure with oversubscription: %v", p)
	}
	if CoLocationPressure(k, 9) <= CoLocationPressure(k, 8) {
		t.Fatal("pressure not increasing")
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	run := func() uint64 {
		w := sim.NewWorld(sim.Config{Seed: 11})
		k := kernel.New(machine.New(w, machine.DefaultConfig()), 0)
		cfg := DefaultConfig(2)
		cfg.WorkingSetPages = 32
		wl, err := Attach(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunUntil(func() bool { return w.Now() > 100_000 }); err != nil {
			t.Fatal(err)
		}
		ops := wl.Ops
		wl.Stop()
		w.Drain()
		return ops
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged: %d vs %d ops", a, b)
	}
}

// TestNoiseFusesUnderChannelDrive guards the production fast path: noise
// attached to a covert channel's session (the fig9/fig10 shape) runs
// under the channel's RunUntilDeadline drive, so Exec must fuse its
// operations and never fall back to running a whole program per op. Such
// a fallback changes no output byte, only speed, so the executor
// statistics are its only witness.
func TestNoiseFusesUnderChannelDrive(t *testing.T) {
	var kern *kernel.Kernel
	var nw *Workload
	ch := covert.NewChannel(covert.Scenarios[0])
	ch.PreRun = func(s *covert.Session) {
		kern = s.Kern
		var err error
		if nw, err = Attach(s.Kern, DefaultConfig(4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ch.Run([]byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	st := kern.Stream
	if nw.Ops == 0 || st.CompiledOps == 0 {
		t.Fatalf("noise issued %d ops, %d fused; want fused traffic (stats %+v)", nw.Ops, st.CompiledOps, st)
	}
	if st.FallbackPrograms != 0 {
		t.Fatalf("FallbackPrograms = %d under a RunUntilDeadline drive, want 0 (stats %+v)", st.FallbackPrograms, st)
	}
}
