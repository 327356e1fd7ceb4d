package difftest

import (
	"reflect"
	"testing"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// corpusPerCombo gives 500 deterministic cases across the 5 builtin
// protocols × 4 registered replacement policies in a normal `go test`
// run (25 per combination).
const corpusPerCombo = 25

// TestDifferentialCorpus executes the deterministic corpus: for every
// builtin protocol × registered replacement policy, 25 seeded random
// traces compared between the hand-written loop and Exec.
// Protocol groups run in parallel so `go test -race` also exercises
// concurrent worlds.
func TestDifferentialCorpus(t *testing.T) {
	protos := coherence.Protocols()
	if len(protos) != 5 {
		t.Fatalf("builtin protocol count = %d, want 5 (corpus contract)", len(protos))
	}
	pols := cache.PolicyNames()
	if len(pols) != 4 {
		t.Fatalf("builtin policy count = %d, want 4 (corpus contract)", len(pols))
	}
	for pi, proto := range protos {
		pi, proto := pi, proto
		t.Run(string(proto), func(t *testing.T) {
			t.Parallel()
			for qi, pol := range pols {
				for i := 0; i < corpusPerCombo; i++ {
					c := (pi*len(pols)+qi)*corpusPerCombo + i
					seed := uint64(c)*0x9E3779B9 + 1
					tr := Generate(seed, proto)
					tr.Replacement = pol
					if mm := Compare(tr); mm != nil {
						small := Shrink(tr)
						t.Fatalf("seed %#x policy %s case %d: %v\nshrunk repro: seed=%#x threads=%d ops=%d\n%+v",
							seed, pol, i, mm, small.Seed, len(small.Threads), small.ops(), small)
					}
				}
			}
		})
	}
}

// TestCompiledPathEngages guards the corpus against vacuity: across the
// corpus Exec must actually fuse a large share of operations, not
// silently fall back to the per-op loop.
func TestCompiledPathEngages(t *testing.T) {
	var compiled, total uint64
	for i := 0; i < 20; i++ {
		tr := Generate(uint64(i)*7919+3, coherence.MESIF)
		rc := RunExec(tr)
		compiled += rc.Stream.CompiledOps
		total += rc.Stream.CompiledOps + rc.Stream.UnfusedOps + rc.Stream.InterpOps
	}
	if total == 0 {
		t.Fatal("corpus produced no operations")
	}
	if compiled*2 < total {
		t.Fatalf("compiled path fused only %d of %d ops; fast path is not engaging", compiled, total)
	}
}

// TestFallbacksExercised checks the corpus covers the counted fallback
// conditions: stores through read-only shared pages must interpret
// per-op (COW faulting path).
func TestFallbacksExercised(t *testing.T) {
	var fallbacks uint64
	for i := 0; i < 50; i++ {
		tr := Generate(uint64(i)*104729+11, coherence.MESI)
		rc := RunExec(tr)
		fallbacks += rc.Stream.FallbackOps
	}
	if fallbacks == 0 {
		t.Fatal("no per-op fallbacks across 50 cases; shared-page stores are not exercised")
	}
}

// TestTracedMachineFallsBackWholeProgram verifies the whole-program
// disengage: with a trace observer attached Exec must run everything
// per op (events must arrive in cycle order), and deliver the same
// event stream as the hand-written loop.
func TestTracedMachineFallsBackWholeProgram(t *testing.T) {
	run := func(exec bool) ([]machine.AccessEvent, kernel.StreamStats) {
		w := sim.NewWorld(sim.Config{Seed: 1})
		m := machine.New(w, machine.DefaultConfig())
		var events []machine.AccessEvent
		m.SetAccessObserver(func(e machine.AccessEvent) { events = append(events, e) })
		k := kernel.New(m, 0)
		p := k.NewProcess("p")
		va := p.MustMmap(1)
		ops := []Access{{kernel.OpLoad, va, 100}, {kernel.OpStore, va + 64, 100}}
		k.Spawn(p, 0, "t", func(kt *kernel.Thread) {
			if !exec {
				RefLoop(kt, ops)
				return
			}
			prog := kernel.NewProgram(p, len(ops))
			Compile(prog, ops)
			kt.Exec(prog, nil)
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return events, k.Stream
	}
	ref, _ := run(false)
	got, st := run(true)
	if len(got) != 2 {
		t.Fatalf("Exec: %d trace events, want 2", len(got))
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("traced Exec events differ from the hand-written loop:\n got %+v\nwant %+v", got, ref)
	}
	if st.FallbackPrograms != 1 {
		t.Fatalf("traced Exec: FallbackPrograms = %d, want 1", st.FallbackPrograms)
	}
}

// TestShrinkPreservesPassing confirms Shrink is the identity on a
// passing trace (it must never "shrink" a healthy case into noise).
func TestShrinkPreservesPassing(t *testing.T) {
	tr := Generate(7, coherence.MOESI)
	got := Shrink(tr)
	if got.Seed != tr.Seed || len(got.Threads) != len(tr.Threads) {
		t.Fatal("Shrink modified a passing trace")
	}
}

// FuzzDifferential is the randomized entry point: `go test -fuzz
// FuzzDifferential ./internal/kernel/difftest` explores seeds, protocol
// and replacement-policy choices beyond the deterministic corpus.
func FuzzDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0))
	f.Add(uint64(12345), uint8(1), uint8(0))
	f.Add(uint64(0xdeadbeef), uint8(2), uint8(1))
	f.Add(uint64(0x9E3779B97F4A7C15), uint8(3), uint8(0))
	f.Add(uint64(271828), uint8(4), uint8(1))
	// RRIP insertion-age seeds: dense conflict traces under SRRIP age
	// whole sets to "distant" before victimizing, and under BRRIP cross
	// the 32-fill bimodal boundary repeatedly, so the aging loop and the
	// insertion trickle are both exercised against the hand-written
	// loop.
	f.Add(uint64(0xA11C0DE), uint8(0), uint8(2))
	f.Add(uint64(0x5EED5EED5EED), uint8(1), uint8(2))
	f.Add(uint64(0xB1B0DA1), uint8(0), uint8(3))
	f.Add(uint64(0xFEEDFACECAFE), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, proto uint8, pol uint8) {
		protos := coherence.Protocols()
		pols := cache.PolicyNames()
		tr := Generate(seed, protos[int(proto)%len(protos)])
		tr.Replacement = pols[int(pol)%len(pols)]
		if mm := Compare(tr); mm != nil {
			small := Shrink(tr)
			t.Fatalf("seed %#x proto %s policy %s: %v\nshrunk repro: %+v",
				seed, tr.Protocol, tr.Replacement, mm, small)
		}
	})
}
