package machine

import (
	"testing"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/sim"
)

// runOn spawns a single thread that executes body against a fresh machine
// and runs the world to completion.
func runOn(t *testing.T, cfg Config, body func(th *sim.Thread, m *Machine)) {
	t.Helper()
	w := sim.NewWorld(sim.Config{Seed: 1234})
	m := New(w, cfg)
	w.Spawn("test", func(th *sim.Thread) { body(th, m) })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := SmallConfig().Validate(); err != nil {
		t.Fatalf("small config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Sockets = 0
	if bad.Validate() == nil {
		t.Error("zero sockets accepted")
	}
	bad = DefaultConfig()
	bad.Sockets = maxSockets + 1
	if bad.Validate() == nil {
		t.Errorf("%d sockets accepted", maxSockets+1)
	}
	good := DefaultConfig()
	good.Sockets = maxSockets
	if err := good.Validate(); err != nil {
		t.Errorf("%d sockets rejected: %v", maxSockets, err)
	}
	bad = DefaultConfig()
	bad.CoresPerSocket = 65
	if bad.Validate() == nil {
		t.Error("65 cores/socket accepted")
	}
	bad = DefaultConfig()
	bad.TLBEntries = -1
	if bad.Validate() == nil {
		t.Error("negative TLB capacity accepted")
	}
	bad = DefaultConfig()
	bad.ClockHz = 0
	if bad.Validate() == nil {
		t.Error("zero clock accepted")
	}
	bad = DefaultConfig()
	bad.L1.Ways = 0
	if bad.Validate() == nil {
		t.Error("bad L1 accepted")
	}
	bad = DefaultConfig()
	bad.Replacement = "clock"
	if bad.Validate() == nil {
		t.Error("unknown replacement policy accepted")
	}
	for _, name := range cache.PolicyNames() {
		good := DefaultConfig()
		good.Replacement = name
		if err := good.Validate(); err != nil {
			t.Errorf("replacement %q rejected: %v", name, err)
		}
	}
	// Tree-PLRU needs power-of-two associativity at every level.
	bad = DefaultConfig()
	bad.Replacement = "tree-plru"
	bad.LLC = cache.Geometry{SizeBytes: 12 * 64, Ways: 12}
	if bad.Validate() == nil {
		t.Error("tree-PLRU with 12-way LLC accepted")
	}
}

// TestReplacementPolicyThreadedToCaches pins machine.New wiring: the
// configured policy reaches every cache level.
func TestReplacementPolicyThreadedToCaches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replacement = "srrip"
	w := sim.NewWorld(sim.Config{Seed: 1})
	m := New(w, cfg)
	if got := m.Socket(0).LLC.Policy(); got != cache.PolicySRRIP {
		t.Fatalf("LLC policy = %v", got)
	}
	c := m.Core(0)
	if c.L1.Policy() != cache.PolicySRRIP || c.L2.Policy() != cache.PolicySRRIP {
		t.Fatalf("private cache policies = %v / %v", c.L1.Policy(), c.L2.Policy())
	}
}

func TestTopology(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 1})
	m := New(w, DefaultConfig())
	if m.Sockets() != 2 || m.Cores() != 12 {
		t.Fatalf("topology %d sockets / %d cores", m.Sockets(), m.Cores())
	}
	c7 := m.Core(7)
	if c7.Socket != 1 || c7.Local != 1 || c7.Global != 7 {
		t.Fatalf("core 7 = %+v", c7)
	}
	if m.Config().Cores() != 12 {
		t.Fatal("Config.Cores wrong")
	}
}

func TestCoreOutOfRangePanics(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 1})
	m := New(w, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Core(99) did not panic")
		}
	}()
	m.Core(99)
}

const addrB = uint64(0x10000) // the shared block B in most tests

func TestFirstLoadComesFromDRAMInExclusive(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		a := m.Load(th, 0, addrB)
		if a.Path != PathDRAM {
			t.Errorf("first load path = %v, want DRAM", a.Path)
		}
		if st := m.ProbeState(0, addrB); st != coherence.Exclusive {
			t.Errorf("state after cold fill = %v, want E", st)
		}
	})
}

func TestRepeatLoadHitsL1(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB)
		a := m.Load(th, 0, addrB)
		if a.Path != PathL1 {
			t.Errorf("repeat load path = %v, want L1", a.Path)
		}
		if a.Latency > 12 {
			t.Errorf("L1 hit latency = %d", a.Latency)
		}
	})
}

// The on-chip attack preconditions (§VI-A): a sibling's load on an
// E-state block is forwarded by the LLC to the owner and downgrades it;
// once two sharers exist, further misses are serviced by the LLC.
func TestLocalExclusiveThenSharedServicePaths(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB) // core 0: E

		a := m.Load(th, 1, addrB)
		if a.Path != PathLocalForward {
			t.Fatalf("sibling load on E block path = %v, want LocalForward", a.Path)
		}
		// Owner downgraded out of E.
		if st := m.ProbeState(0, addrB); st.SoleCopy() {
			t.Fatalf("owner still sole-copy state %v after downgrade", st)
		}
		if !m.LLCHasClean(0, addrB) {
			t.Fatal("LLC did not receive a clean copy on downgrade")
		}

		a = m.Load(th, 2, addrB)
		if a.Path != PathLocalLLC {
			t.Fatalf("third core load path = %v, want LocalLLC", a.Path)
		}
	})
}

func TestRemotePaths(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		// Core 6 lives on socket 1. Spy is core 0 on socket 0.
		m.Load(th, 6, addrB) // remote E
		a := m.Load(th, 0, addrB)
		if a.Path != PathRemoteForward {
			t.Fatalf("remote-E load path = %v, want RemoteForward", a.Path)
		}

		m.Flush(th, 0, addrB)
		m.Load(th, 6, addrB)
		m.Load(th, 7, addrB) // two sharers on socket 1 -> S in remote LLC
		a = m.Load(th, 0, addrB)
		if a.Path != PathRemoteLLC {
			t.Fatalf("remote-S load path = %v, want RemoteLLC", a.Path)
		}
	})
}

func TestFlushInvalidatesEverywhere(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB)
		m.Load(th, 1, addrB)
		m.Load(th, 6, addrB)
		m.Flush(th, 3, addrB) // any core may flush
		for _, g := range []int{0, 1, 6} {
			if st := m.ProbeState(g, addrB); st.Valid() {
				t.Errorf("core %d still holds %v after flush", g, st)
			}
		}
		if m.LLCHasClean(0, addrB) || m.LLCHasClean(1, addrB) {
			t.Error("LLC copy survived flush")
		}
		a := m.Load(th, 0, addrB)
		if a.Path != PathDRAM {
			t.Errorf("post-flush load path = %v, want DRAM", a.Path)
		}
	})
}

func TestStoreSilentUpgradeAndDirtyForward(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB) // E
		a := m.Store(th, 0, addrB)
		if a.Latency > 10 {
			t.Errorf("silent E->M upgrade cost %d cycles", a.Latency)
		}
		if st := m.ProbeState(0, addrB); st != coherence.Modified {
			t.Fatalf("state after upgrade = %v, want M", st)
		}
		// A sibling load must still be forwarded (census==1) and must
		// leave clean data at the LLC.
		b := m.Load(th, 1, addrB)
		if b.Path != PathLocalForward {
			t.Fatalf("load on M block path = %v, want LocalForward", b.Path)
		}
		if !m.LLCHasClean(0, addrB) {
			t.Fatal("M downgrade did not write back to LLC")
		}
	})
}

func TestStoreRFOInvalidatesSharers(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB)
		m.Load(th, 1, addrB)
		m.Load(th, 6, addrB) // three sharers across sockets
		m.Store(th, 1, addrB)
		if st := m.ProbeState(1, addrB); st != coherence.Modified {
			t.Fatalf("writer state = %v, want M", st)
		}
		for _, g := range []int{0, 6} {
			if st := m.ProbeState(g, addrB); st.Valid() {
				t.Errorf("sharer %d survived RFO with %v", g, st)
			}
		}
		// LLC copies are stale now; a miss must forward to the writer.
		a := m.Load(th, 2, addrB)
		if a.Path != PathLocalForward {
			t.Errorf("post-RFO load path = %v, want LocalForward", a.Path)
		}
	})
}

func TestStoreToSharedPaysRFO(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB)
		m.Load(th, 1, addrB) // both S
		a := m.Store(th, 0, addrB)
		if a.Latency < m.Config().Latencies.RFOOverhead {
			t.Errorf("S->M upgrade cost only %d cycles", a.Latency)
		}
	})
}

// Latency band calibration (§V): the four bands must land near the
// paper's measurements and must not overlap.
func TestLatencyCalibration(t *testing.T) {
	type band struct {
		name    string
		want    sim.Cycles
		tol     sim.Cycles
		path    Path
		prepare func(th *sim.Thread, m *Machine)
	}
	bands := []band{
		{"local shared", 98, 12, PathLocalLLC, func(th *sim.Thread, m *Machine) {
			m.Load(th, 1, addrB)
			m.Load(th, 2, addrB)
		}},
		{"local exclusive", 124, 12, PathLocalForward, func(th *sim.Thread, m *Machine) {
			m.Load(th, 1, addrB)
		}},
		{"remote shared", 186, 14, PathRemoteLLC, func(th *sim.Thread, m *Machine) {
			m.Load(th, 6, addrB)
			m.Load(th, 7, addrB)
		}},
		{"remote exclusive", 242, 14, PathRemoteForward, func(th *sim.Thread, m *Machine) {
			m.Load(th, 6, addrB)
		}},
		{"dram", 346, 20, PathDRAM, func(th *sim.Thread, m *Machine) {}},
	}
	for _, b := range bands {
		b := b
		t.Run(b.name, func(t *testing.T) {
			runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
				var sum sim.Cycles
				const n = 200
				for i := 0; i < n; i++ {
					m.Flush(th, 0, addrB)
					b.prepare(th, m)
					th.Advance(4000) // quiet pacing: no probe pressure
					a := m.Load(th, 0, addrB)
					if a.Path != b.path {
						t.Fatalf("iteration %d path = %v, want %v", i, a.Path, b.path)
					}
					sum += a.Latency
				}
				mean := sum / n
				lo, hi := b.want-b.tol, b.want+b.tol
				if mean < lo || mean > hi {
					t.Errorf("%s mean latency = %d, want %d±%d", b.name, mean, b.want, b.tol)
				}
			})
		})
	}
}

// The ordering invariant the multi-bit channel relies on (§VIII-D): four
// strictly separated bands localS < localE < remoteS < remoteE < DRAM.
func TestBandOrderingStrict(t *testing.T) {
	prepare := []func(th *sim.Thread, m *Machine){
		func(th *sim.Thread, m *Machine) { m.Load(th, 1, addrB); m.Load(th, 2, addrB) },
		func(th *sim.Thread, m *Machine) { m.Load(th, 1, addrB) },
		func(th *sim.Thread, m *Machine) { m.Load(th, 6, addrB); m.Load(th, 7, addrB) },
		func(th *sim.Thread, m *Machine) { m.Load(th, 6, addrB) },
		func(th *sim.Thread, m *Machine) {},
	}
	maxs := make([]sim.Cycles, len(prepare))
	mins := make([]sim.Cycles, len(prepare))
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		// Warm the observer's TLB so the first timed load is not a
		// page-walk outlier.
		m.Load(th, 0, addrB)
		for i, prep := range prepare {
			mins[i] = 1 << 62
			for n := 0; n < 100; n++ {
				m.Flush(th, 0, addrB)
				prep(th, m)
				th.Advance(4000) // quiet pacing: no probe pressure
				a := m.Load(th, 0, addrB)
				if a.Latency > maxs[i] {
					maxs[i] = a.Latency
				}
				if a.Latency < mins[i] {
					mins[i] = a.Latency
				}
			}
		}
	})
	for i := 0; i+1 < len(prepare); i++ {
		if maxs[i] >= mins[i+1] {
			t.Errorf("band %d [%d,%d] overlaps band %d [%d,%d]",
				i, mins[i], maxs[i], i+1, mins[i+1], maxs[i+1])
		}
	}
}

func TestDeterministicLatencyStream(t *testing.T) {
	run := func() []sim.Cycles {
		var out []sim.Cycles
		w := sim.NewWorld(sim.Config{Seed: 77})
		m := New(w, DefaultConfig())
		w.Spawn("t", func(th *sim.Thread) {
			for i := 0; i < 300; i++ {
				m.Flush(th, 0, addrB)
				m.Load(th, 1, addrB)
				out = append(out, m.Load(th, 0, addrB).Latency)
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency stream diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestInclusiveLLCBackInvalidation(t *testing.T) {
	cfg := SmallConfig() // 64 KB LLC, 8 ways, 128 sets
	runOn(t, cfg, func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB)
		// Thrash the LLC set that addrB maps to with conflicting lines.
		llc := m.Socket(0).LLC
		target := llc.SetIndexOf(addrB)
		evictions := 0
		for i := uint64(1); evictions < 20 && i < 4096; i++ {
			a := addrB + i*64*uint64(llc.Geometry().Sets())
			if llc.SetIndexOf(a) != target {
				continue
			}
			m.Load(th, 1, a)
			evictions++
		}
		if st := m.ProbeState(0, addrB); st.Valid() {
			t.Errorf("private copy survived inclusive LLC eviction: %v", st)
		}
	})
}

func TestNonInclusiveLLCKeepsPrivateCopies(t *testing.T) {
	cfg := SmallConfig()
	cfg.InclusiveLLC = false
	runOn(t, cfg, func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB)
		// With a non-inclusive LLC the fill does not enter the LLC at
		// all, so LLC pressure cannot evict the private copy.
		llc := m.Socket(0).LLC
		target := llc.SetIndexOf(addrB)
		n := 0
		for i := uint64(1); n < 30 && i < 8192; i++ {
			a := addrB + i*64*uint64(llc.Geometry().Sets())
			if llc.SetIndexOf(a) != target {
				continue
			}
			m.Load(th, 1, a)
			n++
		}
		if st := m.ProbeState(0, addrB); !st.Valid() {
			t.Error("private copy lost despite non-inclusive LLC")
		}
	})
}

func TestMESIFForwardState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = coherence.MESIF
	runOn(t, cfg, func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB) // E at core 0
		m.Load(th, 1, addrB) // forward; owner 0 -> F per MESIF table
		st0 := m.ProbeState(0, addrB)
		st1 := m.ProbeState(1, addrB)
		fCount := 0
		for _, st := range []coherence.State{st0, st1} {
			if st == coherence.Forward {
				fCount++
			}
		}
		if fCount != 1 {
			t.Errorf("MESIF F copies = %d (states %v, %v), want exactly 1", fCount, st0, st1)
		}
	})
}

func TestMOESIOwnedState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = coherence.MOESI
	runOn(t, cfg, func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB)
		m.Store(th, 0, addrB) // M at core 0
		m.Load(th, 1, addrB)  // MOESI: owner M -> O, no memory write-back
		if st := m.ProbeState(0, addrB); st != coherence.Owned {
			t.Errorf("MOESI owner state after remote read = %v, want O", st)
		}
	})
}

func TestMitigationLLCNotified(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mitigations.LLCNotifiedOfEToM = true
	runOn(t, cfg, func(th *sim.Thread, m *Machine) {
		// Clean E: the mitigated LLC answers directly -> local-shared band.
		m.Load(th, 1, addrB)
		a := m.Load(th, 0, addrB)
		if a.Path != PathLocalLLC {
			t.Errorf("mitigated clean-E load path = %v, want LocalLLC", a.Path)
		}

		// Dirty (upgraded) E must still be forwarded for correctness.
		m.Flush(th, 0, addrB)
		m.Load(th, 1, addrB)
		m.Store(th, 1, addrB)
		a = m.Load(th, 0, addrB)
		if a.Path != PathLocalForward {
			t.Errorf("mitigated dirty-E load path = %v, want LocalForward", a.Path)
		}
	})
}

func TestMitigationEqualize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mitigations.EqualizeSocketLatency = true
	runOn(t, cfg, func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB+64) // warm the TLB (same page, different line)
		// Local shared and remote exclusive must be indistinguishable.
		m.Load(th, 1, addrB)
		m.Load(th, 2, addrB)
		localS := m.Load(th, 0, addrB).Latency

		m.Flush(th, 0, addrB)
		m.Load(th, 6, addrB)
		remoteE := m.Load(th, 0, addrB).Latency

		diff := int64(localS) - int64(remoteE)
		if diff < 0 {
			diff = -diff
		}
		if diff > 2*cfg.Latencies.Jitter+2 {
			t.Errorf("equalized latencies differ by %d (localS=%d remoteE=%d)", diff, localS, remoteE)
		}
	})
}

func TestSingleSocketMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sockets = 1
	runOn(t, cfg, func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB+64) // warm the TLB (same page, different line)
		a := m.Load(th, 0, addrB)
		if a.Path != PathDRAM {
			t.Fatalf("cold load path = %v", a.Path)
		}
		// No QPI snoop: DRAM latency is lower than the 2-socket case.
		if a.Latency > 280 {
			t.Errorf("1-socket DRAM latency = %d, want < 280", a.Latency)
		}
	})
}

func TestStatsAccounting(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB)
		m.Load(th, 0, addrB)
		m.Store(th, 0, addrB)
		m.Flush(th, 0, addrB)
		if m.Stats.Loads != 2 || m.Stats.Stores != 1 || m.Stats.Flushes != 1 {
			t.Errorf("stats = %+v", m.Stats)
		}
		if m.Stats.PathCount(PathDRAM) != 1 || m.Stats.PathCount(PathL1) != 2 {
			t.Errorf("path stats = %s", m.Stats.String())
		}
	})
}

func TestLoadsAdvanceThreadClock(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		before := th.Now()
		a := m.Load(th, 0, addrB)
		if th.Now()-before != a.Latency {
			t.Errorf("clock advanced %d, latency %d", th.Now()-before, a.Latency)
		}
	})
}

func TestSubLineAddressesShareLine(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		m.Load(th, 0, addrB)
		a := m.Load(th, 0, addrB+63)
		if a.Path != PathL1 {
			t.Errorf("sub-line access path = %v, want L1", a.Path)
		}
	})
}
