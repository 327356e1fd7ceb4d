//go:build go1.23

package sim

import (
	"container/heap"
	"fmt"
	"iter"
)

type threadState int

const (
	threadReady threadState = iota
	threadRunning
	threadDone
)

func (s threadState) String() string {
	switch s {
	case threadReady:
		return "ready"
	case threadRunning:
		return "running"
	case threadDone:
		return "done"
	default:
		return "unknown"
	}
}

// Thread is a simulated hardware thread. Thread bodies run as coroutines
// and are cooperatively scheduled: exactly one thread executes at a time,
// and control returns to the World at every Advance call. A thread body
// must therefore call Advance (directly or through a timed machine
// operation) inside any loop, or the simulation cannot progress.
type Thread struct {
	id    int
	name  string
	world *World
	time  Cycles
	state threadState
	err   error

	// next runs the thread's coroutine until it parks or finishes;
	// yield, called on the coroutine, parks it and returns from next.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	stopRequested bool

	// Tag is free space for the owner of the thread (the kernel layer
	// stores the owning process and core pinning here).
	Tag any
}

// Spawn creates a simulated thread named name whose body is fn. The thread
// starts at the current global time and runs when the scheduler first
// selects it. Spawn may be called before Run or from inside another
// thread's body.
func (w *World) Spawn(name string, fn func(*Thread)) *Thread {
	t := &Thread{id: w.nextID, name: name, world: w, time: w.now, state: threadReady}
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		t.run(fn)
	})
	w.nextID++
	w.threads = append(w.threads, t)
	heap.Push(&w.queue, t)
	return t
}

// ID returns the thread's unique id (spawn order).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Now returns the thread's local virtual time in cycles. It is the
// simulated analogue of rdtsc.
func (t *Thread) Now() Cycles { return t.time }

// World returns the owning world.
func (t *Thread) World() *World { return t.world }

// Finished reports whether the thread body has returned or been stopped.
func (t *Thread) Finished() bool { return t.state == threadDone }

// StopRequested reports whether World.StopThread has been called for t.
// Long-running bodies may poll it to exit cleanly; otherwise the next
// Advance unwinds them.
func (t *Thread) StopRequested() bool { return t.stopRequested }

// Advance moves the thread's local clock forward by d cycles and yields to
// the scheduler. All simulated work is expressed as Advance calls: a load
// that hits in the L1 is Advance(4) from the core's point of view.
//
// When the advanced thread is still the earliest runnable one — the
// common case for single-threaded phases and for whichever attack thread
// currently trails in virtual time — Advance returns without a switch:
// the scheduler would have re-selected this thread immediately, so
// running on is observationally identical. Otherwise the thread parks
// and its coroutine yields to the scheduler loop, which resumes it when
// it is next selected.
//
// Advance panics with an internal sentinel if the thread has been stopped;
// the sentinel is recovered by the thread wrapper, so thread bodies should
// not recover it themselves (a recover must re-panic values it does not
// recognize — see run).
func (t *Thread) Advance(d Cycles) {
	if t.state != threadRunning {
		panic(fmt.Sprintf("sim: Advance called on %s thread %q", t.state, t.name))
	}
	if t.stopRequested {
		panic(killed{reason: "stop requested"})
	}
	t.time += d
	w := t.world
	// Inline fast path. The checks mirror one iteration of the central
	// scheduler loop, in its order: stop predicate, then (time, id)
	// thread selection, then the cycle limit on the selected thread.
	if w.running && (w.stopFn == nil || !w.stopFn()) &&
		(w.cfg.MaxCycles == 0 || t.time <= w.cfg.MaxCycles) {
		if h := w.peek(); h == nil || t.time < h.time || (t.time == h.time && t.id < h.id) {
			w.now = t.time
			return
		}
	}
	// Slow path: another thread is due (or the scheduler must observe a
	// condition). Park and yield to the scheduler loop.
	t.state = threadReady
	heap.Push(&w.queue, t)
	t.yield(struct{}{})
	if t.stopRequested {
		panic(killed{reason: "stop requested"})
	}
}

// Yield gives other threads at the same timestamp a chance to run without
// consuming simulated time. Because ties are broken by thread id, a Yield
// by the lowest-id thread re-runs it immediately; use Advance(1) when real
// progress is required.
func (t *Thread) Yield() { t.Advance(0) }

// run executes the thread body on its coroutine. It recovers the kill
// sentinel and records any other panic in t.err, which the scheduler
// loop re-panics on the RunUntil caller (Drain does not).
func (t *Thread) run(fn func(*Thread)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				t.err = fmt.Errorf("sim: thread %q panicked: %v", t.name, r)
			}
		}
		t.state = threadDone
	}()
	fn(t)
}
