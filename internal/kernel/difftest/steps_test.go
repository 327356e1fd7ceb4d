package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// edgeWorld is one run of the scheduler edge cases below: thread a
// executes a fixed 400-op stream (see runner), while thread b, pinned
// to the other socket, interleaves loads of the same pages so a parks
// between most of its operations. b kills a at its first load at or
// after killAt (0 = never) and stops once a has finished.
type edgeWorld struct {
	w        *sim.World
	k        *kernel.Kernel
	m        *machine.Machine
	a        *kernel.Thread
	ops      uint64 // a's opsCounter
	returned bool   // a's body ran past its stream
	log      strings.Builder
}

const edgeOps = 400

// runner selects how thread a executes its stream.
type runner int

const (
	// viaLoop is the counted hand-written loop.
	viaLoop runner = iota
	// viaFused is Exec's loop written out with Advance (fusedLoop).
	viaFused
	// viaExec is Exec itself, whose steps the scheduler runs inline.
	viaExec
)

func newEdge(how runner, maxCycles, killAt sim.Cycles) *edgeWorld {
	e := &edgeWorld{w: sim.NewWorld(sim.Config{Seed: 3, MaxCycles: maxCycles})}
	e.m = machine.New(e.w, machine.DefaultConfig())
	e.k = kernel.New(e.m, 0)
	p := e.k.NewProcess("p")
	base := p.MustMmap(8)
	r := rand.New(rand.NewSource(17))
	ops := make([]Access, edgeOps)
	for i := range ops {
		ops[i] = Access{Kind: kernel.OpKind(r.Intn(3)), VA: base + uint64(r.Intn(8*kernel.PageSize/64))*64}
		if r.Intn(4) != 0 { // a quarter of the ops have no think time: split advances
			ops[i].Think = sim.Cycles(1 + r.Intn(400))
		}
	}
	e.a = e.k.Spawn(p, 0, "a", func(kt *kernel.Thread) {
		switch how {
		case viaLoop:
			countedLoop(kt, ops, &e.ops)
		case viaFused:
			fusedLoop(kt, e.m, ops, &e.ops)
		case viaExec:
			prog := kernel.NewProgram(p, len(ops))
			Compile(prog, ops)
			kt.Exec(prog, &e.ops)
		}
		e.returned = true
	})
	e.k.Spawn(p, 7, "b", func(kt *kernel.Thread) {
		for i := 0; !e.a.Sim.Finished(); i++ {
			if killAt != 0 && kt.Now() >= killAt && !e.a.StopRequested() {
				e.w.StopThread(e.a.Sim)
				fmt.Fprintf(&e.log, "kill at %d: ops=%d\n", kt.Now(), e.ops)
			}
			kt.Load(base + uint64(i*97%(8*kernel.PageSize/64))*64)
			kt.Advance(30)
		}
	})
	return e
}

// countedLoop is the hand-written loop Exec must match, with Exec's
// opsCounter accounting point: after the access, before the think.
func countedLoop(kt *kernel.Thread, ops []Access, counter *uint64) {
	for _, op := range ops {
		if kt.StopRequested() {
			return
		}
		switch op.Kind {
		case kernel.OpLoad:
			kt.Load(op.VA)
		case kernel.OpStore:
			kt.Store(op.VA)
		case kernel.OpFlush:
			kt.Flush(op.VA)
		}
		*counter++
		if op.Think > 0 {
			kt.Advance(op.Think)
		}
	}
}

// fusedLoop is Exec's loop written with Advance instead of as
// RunSteps steps: per op, stop if a kill is pending, do the machine work
// untimed at the op's start, then advance once by latency+think when
// the fusion proof holds, else advance by the latency and then count
// the op and advance by its think time. It matches the hand-written
// loop at every drive end; between the two advances of the loop an
// observer can tell them apart, as the fused op is counted (and a kill
// takes effect) after latency+think, not after the latency.
func fusedLoop(kt *kernel.Thread, m *machine.Machine, ops []Access, counter *uint64) {
	w := kt.Sim.World()
	limit := w.CycleLimit()
	for _, op := range ops {
		if kt.StopRequested() {
			return
		}
		pa, err := kt.Proc.Translate(op.VA)
		if err != nil {
			panic(err)
		}
		var a machine.Access
		switch op.Kind {
		case kernel.OpLoad:
			a = m.LoadTimed(kt.Sim, kt.CoreID, pa)
		case kernel.OpStore:
			a = m.StoreTimed(kt.Sim, kt.CoreID, pa)
		case kernel.OpFlush:
			a = m.FlushTimed(kt.Sim, kt.CoreID, pa)
		}
		now, total := kt.Now(), a.Latency+op.Think
		if deadline, running := w.FuseHorizon(); running && op.Think > 0 && now+a.Latency <= deadline &&
			(limit == 0 || now+total <= limit) {
			*counter++
			kt.Advance(total)
			continue
		}
		kt.Advance(a.Latency)
		*counter++
		if op.Think > 0 {
			kt.Advance(op.Think)
		}
	}
}

// snap records every observable of the run after a drive.
func (e *edgeWorld) snap(label string, err error) {
	fmt.Fprintf(&e.log, "%s: err=%v now=%d a@%d ops=%d finished=%v returned=%v live=%d digest=%s\n",
		label, err, e.w.Now(), e.a.Now(), e.ops, e.a.Sim.Finished(), e.returned, e.w.LiveThreads(), e.m.StateDigest())
}

// compareEdge runs scenario through Exec and through fusedLoop, and
// also through the hand-written loop when withLoop is set, and fails on
// the first transcript line that differs. It returns the Exec run.
func compareEdge(t *testing.T, name string, withLoop bool, maxCycles, killAt sim.Cycles, scenario func(*edgeWorld)) *edgeWorld {
	t.Helper()
	got := newEdge(viaExec, maxCycles, killAt)
	scenario(got)
	refs := []runner{viaFused}
	if withLoop {
		refs = append(refs, viaLoop)
	}
	for _, how := range refs {
		ref := newEdge(how, maxCycles, killAt)
		scenario(ref)
		if r, g := ref.log.String(), got.log.String(); r != g {
			rl, gl := strings.Split(r, "\n"), strings.Split(g, "\n")
			for i := range rl {
				if i >= len(gl) || rl[i] != gl[i] {
					t.Fatalf("%s: Exec diverges from reference %d at line %d:\n  ref %s\n Exec %s", name, how, i+1, rl[i], gl[min(i, len(gl)-1)])
				}
			}
			t.Fatalf("%s: Exec transcript longer than reference %d's:\n%s", name, how, g)
		}
		if ref.k.Stream != (kernel.StreamStats{}) {
			t.Fatalf("%s: reference %d touched the executor statistics: %+v", name, how, ref.k.Stream)
		}
	}
	return got
}

// TestExecKillWhileParked: a kill requested while Exec's thread is
// parked between steps — after a fused op, or between the latency and
// the completion of a split one — unwinds it with the kill sentinel at
// the loop's time, with the loop's opsCounter, and runs no further
// step (the machine digest would count its access).
func TestExecKillWhileParked(t *testing.T) {
	for killAt := sim.Cycles(1500); killAt < 60000; killAt += 2311 {
		got := compareEdge(t, fmt.Sprintf("kill at %d", killAt), false, 0, killAt, func(e *edgeWorld) {
			e.snap("Run", e.w.Run())
		})
		if got.returned || got.ops >= edgeOps {
			t.Fatalf("kill at %d: stream ran to completion (%d ops); the kill is too late to test anything", killAt, got.ops)
		}
		if got.k.Stream.CompiledOps == 0 || got.k.Stream.UnfusedOps == 0 {
			t.Fatalf("kill at %d: want fused and split ops before the kill, stats %+v", killAt, got.k.Stream)
		}
	}
}

// TestExecStopPredicateMidStream: clock-free stop predicates that turn
// true partway through the program end each drive at the loop's time
// with the loop's counts, and later drives resume the program.
func TestExecStopPredicateMidStream(t *testing.T) {
	got := compareEdge(t, "stop predicate", false, 0, 0, func(e *edgeWorld) {
		for _, n := range []uint64{1, 137, 138, 290} {
			e.snap(fmt.Sprintf("until ops>=%d", n), e.w.RunUntilDeadline(sim.NoDeadline, func() bool { return e.ops >= n }))
		}
		e.snap("Run", e.w.Run())
	})
	if !got.returned || got.k.Stream.FallbackPrograms != 0 {
		t.Fatalf("returned=%v stats %+v, want a completed fused program", got.returned, got.k.Stream)
	}
}

// TestExecCycleLimitAbort: a MaxCycles abort mid-program happens at the
// same cycle with the same ErrDeadlock, and Drain then unwinds the
// threads identically.
func TestExecCycleLimitAbort(t *testing.T) {
	for limit := sim.Cycles(5003); limit < 60000; limit += 7919 {
		compareEdge(t, fmt.Sprintf("limit %d", limit), true, limit, 0, func(e *edgeWorld) {
			err := e.w.Run()
			if dl := (sim.ErrDeadlock{}); !errors.As(err, &dl) || dl.At != limit {
				t.Fatalf("limit %d: Run = %v, want ErrDeadlock at the limit", limit, err)
			}
			e.snap("Run", err)
			e.w.Drain()
			e.snap("Drain", nil)
		})
	}
}

// TestExecParkedAcrossDeadlineDrives: a deadline drive ends with Exec's
// thread parked between steps; a second drive with a later deadline
// resumes it and ends with it parked again; a final Run completes the
// program.
func TestExecParkedAcrossDeadlineDrives(t *testing.T) {
	got := compareEdge(t, "deadline drives", true, 0, 0, func(e *edgeWorld) {
		e.snap("deadline", e.w.RunUntilDeadline(20000, nil))
		e.snap("later deadline", e.w.RunUntilDeadline(45000, nil))
		e.snap("Run", e.w.Run())
	})
	if !got.returned {
		t.Fatal("program did not complete")
	}
	if got.k.Stream.FallbackPrograms != 0 || got.k.Stream.InterpOps != 0 {
		t.Fatalf("stats %+v: the program was entered under the deadline drive and must not fall back", got.k.Stream)
	}
}
