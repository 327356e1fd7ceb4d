// Package sim provides the discrete-event kernel underneath the coherence
// testbed: a virtual cycle clock, a deterministic cooperative scheduler for
// simulated hardware threads, and seeded pseudo-random number generation.
//
// Determinism is the point. The paper's attack lives or dies on a 26-cycle
// latency difference; the Go runtime's scheduler and garbage collector
// introduce orders of magnitude more wall-clock noise than that. The kernel
// therefore runs exactly one simulated thread at a time and orders threads
// by (virtual time, thread id), so a run is a pure function of its
// configuration and seed. Each simulated thread is a runtime coroutine
// (iter.Pull): the scheduler loop in RunUntil resumes the selected thread,
// which runs until its next timed operation parks it and control returns
// to the loop. Only one of them executes at any time, so shared state
// mutated by thread bodies needs no locking.
//
// A thread whose Advance leaves it the earliest runnable thread simply
// keeps executing: the loop would have re-selected it anyway, so no
// switch happens at all. Otherwise a switch is a coroutine switch, which
// does not go through the Go scheduler. Both paths select threads by the
// same (time, id) order and check the stop predicate and cycle limit in
// the same order, so schedules — and therefore every derived artifact —
// do not depend on which path ran.
package sim

import (
	"container/heap"
	"fmt"
	"sort"
)

// Cycles is a duration or instant measured in simulated CPU cycles.
type Cycles = uint64

// killed is the panic sentinel used to unwind a thread that was stopped
// from outside (World.StopThread or World.Shutdown).
type killed struct{ reason string }

// ErrDeadlock is reported by World.Run when no thread can make progress
// before MaxCycles elapses.
type ErrDeadlock struct {
	At Cycles
}

func (e ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: no runnable thread advanced past cycle limit %d", e.At)
}

// Config parameterizes a World.
type Config struct {
	// Seed feeds the world's root random stream. Child components should
	// obtain their own streams via World.Rand().Split().
	Seed uint64
	// MaxCycles aborts the run when the global clock passes it.
	// Zero means no limit.
	MaxCycles Cycles
}

// World is the simulation kernel: it owns the virtual clock and schedules
// simulated threads deterministically. Create one with NewWorld, add
// threads with Spawn, then drive them with Run or RunUntil.
type World struct {
	cfg     Config
	rand    *Rand
	threads []*Thread
	queue   threadQueue
	nextID  int
	now     Cycles
	running bool

	// stopFn is RunUntil's predicate, stored so the inline fast path can
	// honour it at every step, exactly as the scheduler loop would.
	stopFn func() bool

	// fuseSafe and fuseDeadline describe the active drive's stop
	// structure for FuseHorizon: set by RunUntilDeadline (and Run, with
	// NoDeadline), cleared for opaque RunUntil predicates.
	fuseSafe     bool
	fuseDeadline Cycles
}

// NewWorld returns an empty world.
func NewWorld(cfg Config) *World {
	return &World{cfg: cfg, rand: NewRand(cfg.Seed)}
}

// Rand returns the world's root random stream.
func (w *World) Rand() *Rand { return w.rand }

// Now returns the global virtual clock: the local time of the most
// recently scheduled thread.
func (w *World) Now() Cycles { return w.now }

// Threads returns all threads ever spawned, in spawn order, including
// finished ones.
func (w *World) Threads() []*Thread {
	out := make([]*Thread, len(w.threads))
	copy(out, w.threads)
	return out
}

// NoDeadline marks a RunUntilDeadline drive with no time bound: the
// clock can never exceed it.
const NoDeadline = ^Cycles(0)

// Run drives the world until every thread has finished. It returns
// ErrDeadlock if the cycle limit is exceeded first, or the first panic
// value (re-panicked) if a thread body panics.
func (w *World) Run() error {
	return w.RunUntilDeadline(NoDeadline, nil)
}

// RunUntil drives the world until stop() returns true (checked between
// thread steps), every thread finishes, or the cycle limit is exceeded.
//
// The predicate is opaque: it may read the virtual clock, so batching
// executors (kernel.Thread.Exec) must fall back to per-operation
// scheduling while such a drive is active. Drives whose only time
// dependence is a deadline should use RunUntilDeadline instead, which
// exposes the structure and keeps the fused fast path engaged.
func (w *World) RunUntil(stop func() bool) error {
	return w.runLoop(stop)
}

// RunUntilDeadline drives the world until stop() returns true, the
// global clock exceeds deadline (use NoDeadline for none), every thread
// finishes, or the cycle limit is exceeded. It is semantically identical
// to RunUntil with the predicate `stop() || w.Now() > deadline`, but
// declares that stop itself never reads the virtual clock — its value
// can only change through a thread's own actions. That structure is
// what lets the access-stream executor (kernel.Thread.Exec) fuse an
// operation's latency and think time into one Advance: the skipped
// intermediate predicate evaluation provably has the same value (see
// FuseHorizon).
func (w *World) RunUntilDeadline(deadline Cycles, stop func() bool) error {
	w.fuseSafe, w.fuseDeadline = true, deadline
	defer func() { w.fuseSafe = false }()
	if stop == nil && deadline == NoDeadline {
		return w.runLoop(nil)
	}
	return w.runLoop(func() bool {
		return (stop != nil && stop()) || w.now > deadline
	})
}

// FuseHorizon returns the active drive's deadline when the stop
// condition is clock-free up to that deadline (a Run or RunUntilDeadline
// drive): an Advance that keeps the thread below every other thread's
// wake time may then skip intermediate predicate evaluations at times
// at or below the horizon. ok is false under an opaque RunUntil
// predicate — callers must not fuse.
func (w *World) FuseHorizon() (deadline Cycles, ok bool) {
	if !w.running || !w.fuseSafe {
		return 0, false
	}
	return w.fuseDeadline, true
}

// CycleLimit returns the configured MaxCycles (0 = none).
func (w *World) CycleLimit() Cycles { return w.cfg.MaxCycles }

func (w *World) runLoop(stop func() bool) error {
	if w.running {
		panic("sim: World.Run called re-entrantly")
	}
	w.running = true
	w.stopFn = stop
	defer func() {
		w.running = false
		w.stopFn = nil
	}()

	for {
		if stop != nil && stop() {
			return nil
		}
		t := w.nextRunnable()
		if t == nil {
			return nil // all threads finished
		}
		if w.cfg.MaxCycles != 0 && t.time > w.cfg.MaxCycles {
			// Requeue the over-limit thread so a subsequent Drain can
			// unwind it instead of leaking its coroutine.
			heap.Push(&w.queue, t)
			return ErrDeadlock{At: w.cfg.MaxCycles}
		}
		w.resume(t)
		if t.err != nil {
			panic(t.err)
		}
	}
}

// resume makes t the running thread and runs its coroutine until t
// parks in Advance or finishes.
func (w *World) resume(t *Thread) {
	w.now = t.time
	t.state = threadRunning
	t.next()
}

// nextRunnable pops the ready thread with the smallest (time, id).
func (w *World) nextRunnable() *Thread {
	for w.queue.Len() > 0 {
		t := heap.Pop(&w.queue).(*Thread)
		if t.state == threadReady {
			return t
		}
	}
	return nil
}

// peek returns the earliest ready thread without removing it, or nil.
func (w *World) peek() *Thread {
	for len(w.queue) > 0 {
		if t := w.queue[0]; t.state == threadReady {
			return t
		}
		heap.Pop(&w.queue) // stale entry; queue normally holds only ready threads
	}
	return nil
}

// StopThread asks a thread to terminate. The thread unwinds the next time
// it calls Advance (or immediately if it is waiting to be scheduled).
func (w *World) StopThread(t *Thread) {
	if t.state == threadDone {
		return
	}
	t.stopRequested = true
}

// Shutdown requests termination of every live thread.
func (w *World) Shutdown() {
	for _, t := range w.threads {
		w.StopThread(t)
	}
}

// Drain stops every thread and schedules until all have unwound. Call it
// after RunUntil returns with live threads, so their coroutines exit
// before the world is dropped. A thread that panics while unwinding is
// finished, not re-panicked.
func (w *World) Drain() {
	w.Shutdown()
	for t := w.nextRunnable(); t != nil; t = w.nextRunnable() {
		w.resume(t)
	}
}

// LiveThreads returns the number of threads that have not finished.
func (w *World) LiveThreads() int {
	n := 0
	for _, t := range w.threads {
		if t.state != threadDone {
			n++
		}
	}
	return n
}

// Snapshot returns a human-readable summary of thread states, for
// debugging stuck scenarios.
func (w *World) Snapshot() string {
	ts := w.Threads()
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	s := fmt.Sprintf("world @%d cycles, %d threads\n", w.now, len(ts))
	for _, t := range ts {
		s += fmt.Sprintf("  #%d %-20s %-8s @%d\n", t.id, t.name, t.state, t.time)
	}
	return s
}

// threadQueue is a min-heap ordered by (time, id). Ordering by id second
// makes scheduling fully deterministic when threads share a timestamp.
type threadQueue []*Thread

func (q threadQueue) Len() int { return len(q) }
func (q threadQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].id < q[j].id
}
func (q threadQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *threadQueue) Push(x any)   { *q = append(*q, x.(*Thread)) }
func (q *threadQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return t
}
