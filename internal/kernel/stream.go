package kernel

import (
	"fmt"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// This file implements the access-stream executor: a trace pre-pass
// flattens a thread's straight-line run of memory operations into a
// Program — a preflattened op array with pre-drawn addresses and cached
// virtual-to-physical translations — which Exec then drives in a tight
// loop. Per operation Exec performs the machine work untimed
// (machine.LoadTimed and friends) and fuses the service latency and
// think time into one scheduler Advance.
//
// The contract is the hand-written loop: for each operation, stop if a
// kill is pending, issue kernel.Thread Load/Store/Flush, then Advance by
// the think time when it is positive. Exec is bit-identical to that
// loop in machine state and in the thread's clock at every drive
// boundary. The argument, op by op: the machine work runs at the same
// thread-local time T (before any advance), so the global
// machine-operation order — and with it every RNG draw — is unchanged;
// the fused advance parks the thread at the same final time
// T+latency+think; and the only observation the fusion skips is the
// scheduler's stop-predicate evaluation at the intermediate time
// T+latency. Every drive (sim.World.Run, RunUntilDeadline) declares a
// clock-free predicate plus a deadline, and the deadline comparison is
// checked explicitly against the fuse horizon. The predicate's value
// can change in the latency window only through what the fused op
// already did, and that differs from the loop in one respect: Exec
// counts a fused op in opsCounter at T, the loop at T+latency. Another
// thread or a predicate reading the counter in that window, or a kill
// landing there, therefore sees the op as already done, and a killed
// thread stops at T+latency+think rather than T+latency. No production
// output reads the counter mid-drive. Whenever the proof obligation
// fails — no drive running, an attached trace observer (whose events
// must arrive in cycle order), a stale translation, a store that must
// take a COW fault — Exec runs the hand-written loop itself for the
// operation or the whole program, and counts the fallback.

// OpKind is the operation selector of one Program slot.
type OpKind uint8

const (
	// OpLoad is a timed read.
	OpLoad OpKind = iota
	// OpStore is a timed write (COW faults are honoured by fallback).
	OpStore
	// OpFlush is a clflush of the address's line.
	OpFlush
)

func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpFlush:
		return "flush"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// StreamOp is one preflattened operation: an access to VA followed by
// Think cycles of non-memory work.
type StreamOp struct {
	Kind  OpKind
	VA    uint64
	Think sim.Cycles
}

// Program is a straight-line run of operations produced by a trace
// pre-pass. It caches each operation's physical translation against the
// kernel's mapping epoch, so steady-state execution performs no page
// table walks; any mapping mutation anywhere in the kernel invalidates
// the cache and the next Exec re-resolves it.
type Program struct {
	proc *Process
	ops  []StreamOp

	// pa[i] is op i's cached physical address; valid only when
	// resolvedAt matches the kernel's mapping epoch and ok[i] is set.
	// ok[i] is false for unmapped addresses and for stores through
	// read-only (COW/KSM) mappings, which must take the faulting path.
	pa         []uint64
	ok         []bool
	resolvedAt uint64
	resolved   bool
}

// NewProgram returns an empty program for proc's address space with
// capacity for n operations.
func NewProgram(proc *Process, n int) *Program {
	return &Program{
		proc: proc,
		ops:  make([]StreamOp, 0, n),
		pa:   make([]uint64, 0, n),
		ok:   make([]bool, 0, n),
	}
}

// Reset empties the program for rebuilding, keeping its buffers.
func (p *Program) Reset() {
	p.ops = p.ops[:0]
	p.pa = p.pa[:0]
	p.ok = p.ok[:0]
	p.resolved = false
}

// Len returns the operation count.
func (p *Program) Len() int { return len(p.ops) }

// Load appends a read of va followed by think cycles.
func (p *Program) Load(va uint64, think sim.Cycles) { p.add(OpLoad, va, think) }

// Store appends a write to va followed by think cycles.
func (p *Program) Store(va uint64, think sim.Cycles) { p.add(OpStore, va, think) }

// Flush appends a clflush of va followed by think cycles.
func (p *Program) Flush(va uint64, think sim.Cycles) { p.add(OpFlush, va, think) }

func (p *Program) add(k OpKind, va uint64, think sim.Cycles) {
	p.ops = append(p.ops, StreamOp{Kind: k, VA: va, Think: think})
	p.pa = append(p.pa, 0)
	p.ok = append(p.ok, false)
	p.resolved = false
}

// resolve (re)fills the translation cache for the current mapping epoch.
func (p *Program) resolve(epoch uint64) {
	for i := range p.ops {
		op := &p.ops[i]
		pte := p.proc.pte(op.VA / PageSize)
		if pte == nil || (op.Kind == OpStore && !pte.Writable) {
			p.ok[i] = false
			continue
		}
		p.pa[i] = pte.Frame.Base() + op.VA%PageSize
		p.ok[i] = true
	}
	p.resolvedAt = epoch
	p.resolved = true
}

// StreamStats counts access-stream executor activity for one kernel.
// All counters are cumulative across programs and threads. Every
// operation Exec completes counts in exactly one of CompiledOps,
// UnfusedOps and InterpOps.
type StreamStats struct {
	// CompiledOps counts operations executed on the fused fast path.
	CompiledOps uint64
	// InterpOps counts operations run as the hand-written per-op loop
	// (per-op fallbacks and fallback programs).
	InterpOps uint64
	// UnfusedOps counts fast-path operations that split their advance to
	// mirror the hand-written loop exactly (deadline or cycle-limit
	// crossings, zero-think tails).
	UnfusedOps uint64
	// FallbackPrograms counts Exec calls that ran the whole program per
	// op: an attached tracer, or a call outside a drive.
	FallbackPrograms uint64
	// FallbackOps counts fast-path operations run per op individually:
	// stale translations that resolve to faulting stores or unmapped
	// addresses.
	FallbackOps uint64
}

// Exec runs the program to completion on t, honouring a pending stop
// request before every operation exactly like a hand-written loop. It
// returns the number of operations completed (less than p.Len only when
// stopped). opsCounter, when non-nil, is incremented after each
// operation's access completes and before its think advance — the
// accounting point hand-written workloads use — so externally observed
// counts match the loop even if the thread is killed mid-think. An op
// fused with its think time is counted at its start, though: an
// observer running during its latency, or a kill landing there, sees it
// counted where the loop would not have counted it yet.
//
// Per operation Exec performs the machine work untimed, then advances
// once by latency+think when the fusion proof holds, or splits the
// advance (counted) when it does not. The operations run as the steps
// of one sim.Thread.RunSteps loop, so while the thread is parked the
// scheduler runs them inline and the thread's coroutine resumes only
// for per-op fallbacks, a stop request and the end of the program.
func (t *Thread) Exec(p *Program, opsCounter *uint64) int {
	st := &t.kern.Stream
	world := t.kern.world
	mach := t.kern.mach
	if _, running := world.FuseHorizon(); !running || mach.Traced() {
		// No drive to fuse under, or a tracer that needs cycle-ordered
		// events: the whole program runs per op.
		st.FallbackPrograms++
		for i := range p.ops {
			if t.Sim.StopRequested() {
				return i
			}
			t.interpOp(&p.ops[i], opsCounter)
		}
		return len(p.ops)
	}
	if !p.resolved || p.resolvedAt != t.kern.mapEpoch {
		p.resolve(t.kern.mapEpoch)
	}
	limit := world.CycleLimit()
	th := t.Sim
	core := t.CoreID
	i := 0
	// split is set between the two steps of an unfused operation: the
	// first advances its latency, the second completes the op (counter
	// and think advance) before moving on.
	split := false
	step := func() (sim.Cycles, bool) {
		if split {
			split = false
			if opsCounter != nil {
				*opsCounter++
			}
			if think := p.ops[i-1].Think; think > 0 {
				return think, true
			}
		}
		if i == len(p.ops) || th.StopRequested() {
			return 0, false
		}
		// Mappings move only while this thread is parked between steps;
		// re-check the epoch before every operation. A cheap equality
		// test keeps the step tight.
		if p.resolvedAt != t.kern.mapEpoch {
			p.resolve(t.kern.mapEpoch)
		}
		if !p.ok[i] {
			// Unmapped (will segfault identically) or a store that must
			// take the COW faulting path: the coroutine runs it per op.
			return 0, false
		}
		op := &p.ops[i]
		var a machine.Access
		switch op.Kind {
		case OpLoad:
			a = mach.LoadTimed(th, core, p.pa[i])
		case OpStore:
			a = mach.StoreTimed(th, core, p.pa[i])
		case OpFlush:
			a = mach.FlushTimed(th, core, p.pa[i])
		}
		i++
		now := th.Now()
		total := a.Latency + op.Think
		// Fuse when the loop's intermediate scheduling point at
		// now+latency is unobservable: below the drive's stop horizon
		// and, with a cycle limit, not past it (the limit is checked at
		// every advance, so a split mirrors the abort time exactly).
		// The horizon is re-read per op: the thread can stay parked
		// across the end of one drive and into another with a different
		// deadline.
		deadline, running := world.FuseHorizon()
		if running && op.Think > 0 && now+a.Latency <= deadline &&
			(limit == 0 || now+total <= limit) {
			st.CompiledOps++
			if opsCounter != nil {
				*opsCounter++
			}
			return total, true
		}
		st.UnfusedOps++
		split = true
		return a.Latency, true
	}
	for {
		th.RunSteps(step)
		if i == len(p.ops) || th.StopRequested() {
			return i
		}
		st.FallbackOps++
		t.interpOp(&p.ops[i], opsCounter)
		i++
	}
}

// interpOp is one iteration of the hand-written loop: the timed access,
// then the think advance.
func (t *Thread) interpOp(op *StreamOp, opsCounter *uint64) {
	switch op.Kind {
	case OpLoad:
		t.Load(op.VA)
	case OpStore:
		t.Store(op.VA)
	case OpFlush:
		t.Flush(op.VA)
	}
	t.kern.Stream.InterpOps++
	if opsCounter != nil {
		*opsCounter++
	}
	if op.Think > 0 {
		t.Sim.Advance(op.Think)
	}
}
