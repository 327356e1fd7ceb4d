package kernel

import (
	"fmt"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// Thread is a simulated OS thread: a sim thread pinned to a core
// (sched_setaffinity semantics) executing within a process's address
// space. Its Load/Store/Flush translate virtual addresses and drive the
// machine, advancing virtual time by the operation's latency.
type Thread struct {
	Sim    *sim.Thread
	Proc   *Process
	CoreID int
	kern   *Kernel
	// Faults counts COW faults taken by this thread.
	Faults int
}

// Spawn creates a thread of proc pinned to global core id, running body.
// Pinning is fixed for the thread's lifetime, as the paper's experiments
// pin trojan and spy threads with sched_setaffinity.
func (k *Kernel) Spawn(proc *Process, core int, name string, body func(*Thread)) *Thread {
	if core < 0 || core >= k.mach.Cores() {
		panic(fmt.Sprintf("kernel: cannot pin %q to core %d of %d", name, core, k.mach.Cores()))
	}
	t := &Thread{Proc: proc, CoreID: core, kern: k}
	t.Sim = k.world.Spawn(fmt.Sprintf("%s/%s@c%d", proc.Name, name, core), func(st *sim.Thread) {
		st.Tag = t
		body(t)
	})
	return t
}

// Now returns the thread's virtual time — the rdtsc analogue.
func (t *Thread) Now() sim.Cycles { return t.Sim.Now() }

// Advance burns d cycles of non-memory work (loop overhead, waiting).
func (t *Thread) Advance(d sim.Cycles) { t.Sim.Advance(d) }

// StopRequested reports a pending kill for cooperative shutdown.
func (t *Thread) StopRequested() bool { return t.Sim.StopRequested() }

// Socket returns the socket the thread is pinned to.
func (t *Thread) Socket() int { return t.kern.mach.Core(t.CoreID).Socket }

// Load performs a timed read of virtual address va and returns the access
// outcome; the latency is what a rdtsc-bracketed load would measure.
func (t *Thread) Load(va uint64) machine.Access {
	pa, err := t.Proc.Translate(va)
	if err != nil {
		panic(err)
	}
	return t.kern.mach.Load(t.Sim, t.CoreID, pa)
}

// Store performs a timed write to va. Stores to read-only (KSM-merged or
// COW) pages fault: the kernel un-merges the page, charges FaultLatency,
// and the store proceeds against the private copy.
func (t *Thread) Store(va uint64) machine.Access {
	pte := t.Proc.pte(va / PageSize)
	if pte == nil {
		panic(fmt.Sprintf("kernel: segfault: store to %#x", va))
	}
	faulted := false
	if !pte.Writable {
		if err := t.kern.cowBreak(pte); err != nil {
			panic(err)
		}
		t.Faults++
		faulted = true
	}
	pa, err := t.Proc.Translate(va)
	if err != nil {
		panic(err)
	}
	a := t.kern.mach.Store(t.Sim, t.CoreID, pa)
	if faulted {
		t.Sim.Advance(t.kern.FaultLatency)
		a.Latency += t.kern.FaultLatency
	}
	return a
}

// Flush evicts va's line from every cache (clflush). Like the real
// instruction it needs only read access to the page.
func (t *Thread) Flush(va uint64) machine.Access {
	pa, err := t.Proc.Translate(va)
	if err != nil {
		panic(err)
	}
	return t.kern.mach.Flush(t.Sim, t.CoreID, pa)
}

// Preempt simulates the thread being context-switched out for d cycles
// (the OS noise source of §VII-A's re-synchronization discussion).
func (t *Thread) Preempt(d sim.Cycles) { t.Sim.Advance(d) }
