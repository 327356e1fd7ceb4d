//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

type threadState int

const (
	threadReady threadState = iota
	threadRunning
	// threadStepping marks a thread whose RunSteps step function is
	// executing; Advance and Yield panic in this state.
	threadStepping
	threadDone
)

func (s threadState) String() string {
	switch s {
	case threadReady:
		return "ready"
	case threadRunning:
		return "running"
	case threadStepping:
		return "stepping"
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
	// resumes counts next calls: coroutine starts and resumptions.
	resumes uint64

	// step is the step function of the RunSteps loop the thread is
	// parked in, which the scheduler calls inline instead of resuming
	// the coroutine; nil otherwise. The scheduler clears it when the
	// step ends the loop.
	step func() (Cycles, bool)

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
	w.queue.push(t)
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

// Resumes returns how many times the scheduler has started or resumed
// the thread's coroutine. Steps the scheduler runs inline (RunSteps) do
// not count, so it witnesses how often a stepping thread still switches.
func (t *Thread) Resumes() uint64 { return t.resumes }

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
	if t.world.continues(t) {
		return
	}
	// Another thread is due (or the scheduler must observe a condition):
	// park and yield to the scheduler loop.
	t.park()
	if t.stopRequested {
		panic(killed{reason: "stop requested"})
	}
}

// park queues the thread as ready and yields its coroutine to the
// scheduler loop; it returns when the scheduler resumes the coroutine.
func (t *Thread) park() {
	t.state = threadReady
	t.world.queue.push(t)
	t.yield(struct{}{})
}

// RunSteps runs the loop
//
//	for {
//		d, ok := step()
//		if !ok {
//			return
//		}
//		t.Advance(d)
//	}
//
// with exactly its meaning: the same clock, the same stop-request
// checks and the same schedule. What differs is where the loop runs.
// When an advance parks the thread, its coroutine stays parked: the
// scheduler, on next selecting the thread, calls step inline itself,
// and keeps calling it while the thread stays the earliest runnable
// one. The coroutine resumes only when step returns false (RunSteps
// then returns), when a stop request unwinds the thread, or when a
// drive ends with the thread still parked and it is next run outside
// one (Drain), where RunSteps continues the loop on the coroutine.
//
// step must not call Advance or Yield (they panic while a step runs);
// it reads the clock with Now and does untimed work only. A panic in
// step surfaces exactly as a panic in the thread body.
func (t *Thread) RunSteps(step func() (Cycles, bool)) {
	if t.state != threadRunning {
		panic(fmt.Sprintf("sim: RunSteps called on %s thread %q", t.state, t.name))
	}
	t.step = step
	for t.steps() {
		t.park()
		// The scheduler resumed the coroutine: it ran the loop to its
		// end (and cleared step), or a kill is pending, or a step it ran
		// panicked, or it resumed the thread outside a drive and left
		// the loop to us.
		if t.step == nil {
			return
		}
		if t.stopRequested || t.err != nil {
			break
		}
	}
	if t.step != nil {
		t.step = nil
		panic(killed{reason: "stop requested"})
	}
}

// steps runs the thread's RunSteps loop from its next step while the
// thread stays the scheduler's next pick. It returns true when the
// advanced thread must park, and false when the loop ended (step is
// cleared) or a stop request is pending before an advance. It runs on
// the coroutine or, inline, on the scheduler loop.
func (t *Thread) steps() (park bool) {
	for {
		t.state = threadStepping
		d, ok := t.step()
		t.state = threadRunning
		if !ok {
			t.step = nil
			return false
		}
		if t.stopRequested {
			return false
		}
		t.time += d
		if !t.world.continues(t) {
			return true
		}
	}
}

// Yield gives other threads at the same timestamp a chance to run without
// consuming simulated time. Because ties are broken by thread id, a Yield
// by the lowest-id thread re-runs it immediately; use Advance(1) when real
// progress is required.
func (t *Thread) Yield() { t.Advance(0) }

// run executes the thread body on its coroutine. It recovers the kill
// sentinel and records any other panic in t.err, which the scheduler
// loop re-panics on the drive's caller (Drain does not).
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
