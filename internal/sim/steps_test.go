package sim

import (
	"runtime"
	"strings"
	"testing"
)

// spawnPeer adds a thread that advances by one cycle forever, so a
// stepping thread advancing by more parks at every step.
func spawnPeer(w *World) *Thread {
	return w.Spawn("peer", func(th *Thread) {
		for {
			th.Advance(1)
		}
	})
}

// runPanics drives w with Run and returns the error it panicked with.
func runPanics(t *testing.T, w *World) error {
	t.Helper()
	var got error
	func() {
		defer func() {
			err, ok := recover().(error)
			if !ok {
				t.Fatalf("Run panicked with %v, want an error", err)
			}
			got = err
		}()
		_ = w.Run()
		t.Fatal("Run returned instead of panicking")
	}()
	return got
}

// TestRunStepsPanicSurfacesLikeBodyPanic: a panic in a step the
// scheduler runs inline surfaces exactly like one in the thread body —
// the same error from Run, the thread finished, its deferred calls run
// and its coroutine gone — and so does one in the first step, which
// runs on the coroutine.
func TestRunStepsPanicSurfacesLikeBodyPanic(t *testing.T) {
	const want = `sim: thread "x" panicked: boom`
	for _, tc := range []struct {
		name  string
		after int // steps before the panicking one
		steps bool
	}{
		{"body", 5, false},
		{"inline step", 5, true},
		{"first step", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			w := NewWorld(Config{Seed: 1})
			spawnPeer(w)
			deferred := false
			var inlineResumes uint64
			x := w.Spawn("x", func(th *Thread) {
				defer func() { deferred = true }()
				n := 0
				if !tc.steps {
					for ; n < tc.after; n++ {
						th.Advance(3)
					}
					panic("boom")
				}
				th.RunSteps(func() (Cycles, bool) {
					if n == tc.after {
						inlineResumes = th.Resumes()
						panic("boom")
					}
					n++
					return 3, true
				})
			})
			if err := runPanics(t, w); err.Error() != want {
				t.Fatalf("Run panicked with %q, want %q", err, want)
			}
			if tc.steps && tc.after > 0 && inlineResumes != 1 {
				t.Fatalf("panicking step ran after %d coroutine resumes, want 1 (the start): not inline", inlineResumes)
			}
			if !x.Finished() || !deferred {
				t.Fatalf("thread finished=%v deferred ran=%v, want both", x.Finished(), deferred)
			}
			w.Drain()
			checkGoroutines(t, base)
		})
	}
}

// TestAdvanceInsideStepPanics: Advance and Yield from inside a step
// panic instead of parking, both in the first step (on the coroutine)
// and in a step the scheduler runs inline.
func TestAdvanceInsideStepPanics(t *testing.T) {
	const want = `sim: thread "x" panicked: sim: Advance called on stepping thread "x"`
	for _, after := range []int{0, 4} {
		for _, yield := range []bool{false, true} {
			w := NewWorld(Config{Seed: 1})
			spawnPeer(w)
			n := 0
			w.Spawn("x", func(th *Thread) {
				th.RunSteps(func() (Cycles, bool) {
					if n == after {
						if yield {
							th.Yield()
						} else {
							th.Advance(1)
						}
					}
					n++
					return 3, true
				})
			})
			if err := runPanics(t, w); err.Error() != want {
				t.Fatalf("after %d steps, yield=%v: Run panicked with %q, want %q", after, yield, err, want)
			}
			if n != after {
				t.Fatalf("the step went on after Advance: %d steps, want %d", n, after)
			}
			w.Drain()
		}
	}
}

// TestRunStepsKillWhileParked: a thread killed while parked between
// steps unwinds with the kill sentinel (no error, deferred calls run)
// and runs no further step; Drain unwinds one left parked by a drive.
func TestRunStepsKillWhileParked(t *testing.T) {
	for _, viaDrain := range []bool{false, true} {
		w := NewWorld(Config{Seed: 1})
		steps := 0
		deferred, returned := false, false
		var x *Thread
		x = w.Spawn("x", func(th *Thread) {
			defer func() { deferred = true }()
			th.RunSteps(func() (Cycles, bool) {
				steps++
				return 5, true
			})
			returned = true
		})
		killer := w.Spawn("killer", func(th *Thread) {
			th.Advance(52)
			if !viaDrain {
				th.World().StopThread(x)
			}
		})
		var err error
		if viaDrain {
			err = w.RunUntilDeadline(NoDeadline, killer.Finished)
			w.Drain()
		} else {
			err = w.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		// x stepped at 0, 5, ..., 50 and parked at 55 behind the killer.
		if steps != 11 || x.Now() != 55 || !x.Finished() || x.err != nil || !deferred || returned {
			t.Fatalf("drain=%v: steps=%d now=%d finished=%v err=%v deferred=%v returned=%v; want 11 steps, parked at 55, unwound by the sentinel",
				viaDrain, steps, x.Now(), x.Finished(), x.err, deferred, returned)
		}
	}
}

// TestRunStepsResumesOncePerLoop: a stepping thread interleaved with a
// peer at every step resumes its coroutine only to start and to return
// from RunSteps, and the loop's schedule is the Advance loop's.
func TestRunStepsResumesOncePerLoop(t *testing.T) {
	run := func(steps bool) (string, uint64) {
		w := NewWorld(Config{Seed: 1})
		var log strings.Builder
		spawnPeer(w)
		x := w.Spawn("x", func(th *Thread) {
			n := 0
			step := func() (Cycles, bool) {
				log.WriteString(string(rune('a' + th.Now()%26)))
				n++
				return Cycles(n % 4), n < 200
			}
			if steps {
				th.RunSteps(step)
			} else {
				for {
					d, ok := step()
					if !ok {
						break
					}
					th.Advance(d)
				}
			}
			th.Advance(7)
		})
		if err := w.RunUntilDeadline(NoDeadline, func() bool { return x.Finished() }); err != nil {
			t.Fatal(err)
		}
		resumes := x.Resumes()
		w.Drain()
		return log.String(), resumes
	}
	loop, loopResumes := run(false)
	stepped, resumes := run(true)
	if stepped != loop {
		t.Fatalf("RunSteps observed a different clock sequence than the Advance loop")
	}
	// At most: start, return from RunSteps, the final Advance's park.
	if resumes > 3 || loopResumes < 100 {
		t.Fatalf("resumes: RunSteps %d (want <= 3), Advance loop %d (want >= 100)", resumes, loopResumes)
	}
}

// TestRunStepsSelfStop: a step that stops its own thread and returns
// ok unwinds it before the advance, as Advance's kill check does in the
// loop; one that returns false ends RunSteps normally first.
func TestRunStepsSelfStop(t *testing.T) {
	type outcome struct {
		now      Cycles
		steps    int
		returned bool
	}
	run := func(steps bool, at int, more bool) outcome {
		w := NewWorld(Config{Seed: 1})
		spawnPeer(w)
		var o outcome
		x := w.Spawn("x", func(th *Thread) {
			step := func() (Cycles, bool) {
				o.steps++
				if o.steps == at {
					th.World().StopThread(th)
					return 5, more
				}
				return 5, true
			}
			if steps {
				th.RunSteps(step)
			} else {
				for {
					d, ok := step()
					if !ok {
						break
					}
					th.Advance(d)
				}
			}
			o.returned = true
		})
		if err := w.RunUntilDeadline(NoDeadline, x.Finished); err != nil {
			t.Fatal(err)
		}
		o.now = x.Now()
		w.Drain()
		return o
	}
	for _, at := range []int{1, 7} {
		for _, more := range []bool{true, false} {
			want, got := run(false, at, more), run(true, at, more)
			if got != want || got.returned == more {
				t.Fatalf("stop at step %d, ok=%v: RunSteps %+v, loop %+v", at, more, got, want)
			}
		}
	}
}
