package coherence_test

import (
	"testing"

	"coherentleak/internal/coherence"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// The core-valid bits the census is computed from live in the machine's
// line table, and the LLC-valid mark on the LLC's own lines; their unit
// tests are in internal/machine and internal/cache. These tests pin the
// same behaviour end to end, through the machine's public API: the
// service path of each miss is the census of the LLC's core-valid bits,
// and LLCHasClean is the LLC-valid mark.

func runDirectory(t *testing.T, body func(th *sim.Thread, m *machine.Machine)) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Protocol = coherence.MESIF
	cfg.InclusiveLLC = true
	w := sim.NewWorld(sim.Config{Seed: 1234})
	m := machine.New(w, cfg)
	w.Spawn("test", func(th *sim.Thread) { body(th, m) })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// A fill marks the line LLC-valid; another core's store (an RFO) drops
// the mark but keeps the writer's core-valid bit, so the next read is
// forwarded to it; the forward writes a clean copy back and re-marks the
// LLC; a flush clears everything.
func TestDirectoryLLCValidLifecycle(t *testing.T) {
	runDirectory(t, func(th *sim.Thread, m *machine.Machine) {
		const addr = 0x3000
		if m.LLCHasClean(0, addr) {
			t.Fatal("untouched line marked LLC-valid")
		}
		if a := m.Load(th, 0, addr); a.Path != machine.PathDRAM {
			t.Fatalf("first load path = %v, want DRAM", a.Path)
		}
		if !m.LLCHasClean(0, addr) || m.LLCHasClean(1, addr) {
			t.Fatal("fill not marked LLC-valid on exactly its socket")
		}
		m.Store(th, 1, addr)
		if m.LLCHasClean(0, addr) {
			t.Fatal("store left the stale LLC copy marked valid")
		}
		if s := m.ProbeState(1, addr); s != coherence.Modified {
			t.Fatalf("writer state = %v, want M", s)
		}
		// Dropping the LLC-valid mark kept the writer's core-valid bit.
		if a := m.Load(th, 0, addr); a.Path != machine.PathLocalForward {
			t.Fatalf("read after store path = %v, want forward to the owner", a.Path)
		}
		if !m.LLCHasClean(0, addr) {
			t.Fatal("owner forward did not re-mark the LLC copy")
		}
		m.Flush(th, 0, addr)
		if m.LLCHasClean(0, addr) || m.ProbeState(0, addr).Valid() || m.ProbeState(1, addr).Valid() {
			t.Fatal("flush left state behind")
		}
		if err := m.CheckInvariants(addr); err != nil {
			t.Fatal(err)
		}
	})
}

// Queries do not mutate the directory, and every mutation an access makes
// is visible to the next access: the census walks none → owned → shared
// as cores read the line, and back to owned after a store.
func TestDirectoryValueSemantics(t *testing.T) {
	runDirectory(t, func(th *sim.Thread, m *machine.Machine) {
		const addr = 0x5000
		m.Load(th, 0, addr)

		// Observers are pure: querying twice changes nothing.
		before := m.StateDigest()
		for i := 0; i < 2; i++ {
			m.LLCHasClean(0, addr)
			m.ProbeState(0, addr)
		}
		if m.StateDigest() != before {
			t.Fatal("a query mutated the machine")
		}

		for _, step := range []struct {
			core int
			want machine.Path
		}{
			{1, machine.PathLocalForward}, // census owned: forward to core 0
			{2, machine.PathLocalLLC},     // census shared: LLC answers
			{3, machine.PathLocalLLC},
		} {
			if a := m.Load(th, step.core, addr); a.Path != step.want {
				t.Fatalf("core %d load path = %v, want %v", step.core, a.Path, step.want)
			}
		}
		m.Store(th, 2, addr)
		for _, g := range []int{0, 1, 3} {
			if m.ProbeState(g, addr).Valid() {
				t.Fatalf("core %d kept a copy after core 2's store", g)
			}
		}
		if a := m.Load(th, 0, addr); a.Path != machine.PathLocalForward {
			t.Fatalf("read after store path = %v, want forward to the writer", a.Path)
		}
		if err := m.CheckInvariants(addr); err != nil {
			t.Fatal(err)
		}
	})
}
