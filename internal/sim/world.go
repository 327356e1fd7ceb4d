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
// (iter.Pull): the scheduler loop resumes the selected thread,
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
//
// A thread whose work between advances is untimed can hand that work to
// the scheduler as a step function (Thread.RunSteps). While it is
// parked inside RunSteps, the loop calls the step inline when it
// selects the thread, so a thread interleaved with others at a fine
// grain costs a function call per advance instead of a coroutine round
// trip.
package sim

import (
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
// threads with Spawn, then drive them with Run or RunUntilDeadline.
type World struct {
	cfg     Config
	rand    *Rand
	threads []*Thread
	queue   threadQueue
	nextID  int
	now     Cycles
	running bool

	// stopFn is the drive's stop predicate, stored so the inline fast
	// path can honour it at every step, exactly as the scheduler loop
	// would.
	stopFn func() bool

	// stepping is the thread whose step function the loop is running
	// inline, so a panic out of it is charged to that thread.
	stepping *Thread

	// deadline is the active drive's deadline (NoDeadline for Run),
	// reported by FuseHorizon.
	deadline Cycles
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

// RunUntilDeadline drives the world until stop() returns true (checked
// between thread steps), the global clock exceeds deadline (use
// NoDeadline for none), every thread finishes, or the cycle limit is
// exceeded. stop must not read the virtual clock — its value can only
// change through a thread's own actions. That structure is what lets
// the access-stream executor (kernel.Thread.Exec) fuse an operation's
// latency and think time into one Advance: the skipped intermediate
// predicate evaluation provably has the same value (see FuseHorizon).
func (w *World) RunUntilDeadline(deadline Cycles, stop func() bool) error {
	if w.running {
		panic("sim: World.Run called re-entrantly")
	}
	halt := stop
	if stop != nil || deadline != NoDeadline {
		halt = func() bool { return (stop != nil && stop()) || w.now > deadline }
	}
	w.running = true
	w.deadline = deadline
	w.stopFn = halt
	defer func() {
		// A step run inline panicked: record it on its thread and unwind
		// the parked coroutine, as a panic in the thread body would have
		// (the body's deferred calls run and the thread finishes), then
		// re-panic it on the caller like a body panic.
		var err error
		if t := w.stepping; t != nil {
			w.stepping = nil
			t.err = fmt.Errorf("sim: thread %q panicked: %v", t.name, recover())
			err = t.err
			t.state = threadRunning
			t.resumes++
			t.next()
		}
		w.running = false
		w.stopFn = nil
		if err != nil {
			panic(err)
		}
	}()

	for {
		if halt != nil && halt() {
			return nil
		}
		t := w.nextRunnable()
		if t == nil {
			return nil // all threads finished
		}
		if w.cfg.MaxCycles != 0 && t.time > w.cfg.MaxCycles {
			// Requeue the over-limit thread so a subsequent Drain can
			// unwind it instead of leaking its coroutine.
			w.queue.push(t)
			return ErrDeadlock{At: w.cfg.MaxCycles}
		}
		w.resume(t)
		if t.err != nil {
			panic(t.err)
		}
	}
}

// FuseHorizon returns the active drive's deadline and whether a drive
// is running. Every drive's stop condition is clock-free up to its
// deadline, so an Advance that keeps the thread below every other
// thread's wake time may skip intermediate predicate evaluations at
// times at or below the horizon. Outside a drive (Drain) callers must
// not fuse.
func (w *World) FuseHorizon() (deadline Cycles, running bool) {
	return w.deadline, w.running
}

// CycleLimit returns the configured MaxCycles (0 = none).
func (w *World) CycleLimit() Cycles { return w.cfg.MaxCycles }

// continues reports whether the running thread t, whose clock just
// advanced, is what the scheduler loop would select next, and if so
// moves the global clock to it. The checks mirror one iteration of
// the loop, in its order: stop predicate, then (time, id) thread
// selection, then the cycle limit on the selected thread.
func (w *World) continues(t *Thread) bool {
	if w.running && (w.stopFn == nil || !w.stopFn()) &&
		(w.cfg.MaxCycles == 0 || t.time <= w.cfg.MaxCycles) && w.queue.leads(t) {
		w.now = t.time
		return true
	}
	return false
}

// resume makes t the running thread and runs it until it parks or
// finishes. A thread parked inside RunSteps is stepped inline while a
// drive is active and no kill is pending; its coroutine resumes only
// when the steps end.
func (w *World) resume(t *Thread) {
	w.now = t.time
	t.state = threadRunning
	if t.step != nil && !t.stopRequested && w.running {
		w.stepping = t
		park := t.steps()
		w.stepping = nil
		if park {
			t.state = threadReady
			w.queue.push(t)
			return
		}
	}
	t.resumes++
	t.next()
}

// nextRunnable pops the ready thread with the smallest (time, id).
func (w *World) nextRunnable() *Thread {
	for len(w.queue) > 0 {
		if t := w.queue.pop(); t.state == threadReady {
			return t
		}
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
// after RunUntilDeadline returns with live threads, so their coroutines exit
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

// threadQueue is a binary min-heap of threads ordered by (time, id).
// Ordering by id second makes scheduling fully deterministic when
// threads share a timestamp; as the order is strict and total, any
// correct heap pops the same thread. Entries carry their keys, which
// do not change while a thread is queued, so comparisons read only the
// heap array.
type threadQueue []queueEntry

type queueEntry struct {
	time Cycles
	id   int
	t    *Thread
}

func (e *queueEntry) less(o *queueEntry) bool {
	return e.time < o.time || (e.time == o.time && e.id < o.id)
}

// leads reports whether t comes before every queued ready thread,
// dropping stale entries (the queue normally holds only ready threads).
func (q *threadQueue) leads(t *Thread) bool {
	for len(*q) > 0 {
		h := &(*q)[0]
		if h.t.state == threadReady {
			return t.time < h.time || (t.time == h.time && t.id < h.id)
		}
		q.pop()
	}
	return true
}

func (q *threadQueue) push(t *Thread) {
	*q = append(*q, queueEntry{time: t.time, id: t.id, t: t})
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].less(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *threadQueue) pop() *Thread {
	h := *q
	n := len(h) - 1
	t := h[0].t
	h[0] = h[n]
	h[n] = queueEntry{}
	h = h[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].less(&h[m]) {
			m = l
		}
		if r < n && h[r].less(&h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return t
}
