package sim

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from the current run")

// schedLog records every scheduled step as "thread id, start time": a
// body logs once when it first runs, after every Advance or Yield
// returns, and once when it exits (normally or by being stopped).
type schedLog struct {
	strings.Builder
	steps int
}

func (l *schedLog) step(th *Thread, what string) {
	l.steps++
	fmt.Fprintf(l, "%d\t%d\t%s\n", th.ID(), th.Now(), what)
}

func (l *schedLog) phase(w *World, name string, err error) {
	fmt.Fprintf(l, "# %s: now=%d live=%d err=%v\n", name, w.Now(), w.LiveThreads(), err)
}

// seededBody returns a thread body that performs n seeded steps (n < 0
// loops until stopped). A step of size zero is a Yield. at, when set,
// runs after the given step.
func seededBody(l *schedLog, r *Rand, n int, at map[int]func(*Thread)) func(*Thread) {
	return func(th *Thread) {
		l.step(th, "start")
		defer l.step(th, "exit")
		for i := 0; n < 0 || i < n; i++ {
			if d := Cycles(r.Intn(6)); d == 0 {
				th.Yield()
			} else {
				th.Advance(d)
			}
			l.step(th, "step")
			if f := at[i]; f != nil {
				f(th)
			}
		}
	}
}

// runScheduleScenarios drives the scheduler through every entry point
// and lifecycle event and returns the recorded schedule.
func runScheduleScenarios() string {
	var l schedLog

	// Five threads to completion, a spawn from inside a thread and a
	// StopThread mid-run.
	l.WriteString("## complete\n")
	w := NewWorld(Config{Seed: 20180224})
	r := w.Rand()
	var victim *Thread
	for i := 0; i < 5; i++ {
		at := map[int]func(*Thread){}
		n := 40 + 10*i
		switch i {
		case 1:
			n = -1
		case 2:
			at[12] = func(th *Thread) {
				th.World().Spawn("child", seededBody(&l, r.Split(), 25, nil))
			}
		case 4:
			at[20] = func(th *Thread) { th.World().StopThread(victim) }
		}
		t := w.Spawn(fmt.Sprintf("t%d", i), seededBody(&l, r.Split(), n, at))
		if i == 1 {
			victim = t
		}
	}
	l.phase(w, "Run", w.Run())

	// Opaque predicate, then a deadline drive with a clock-free stop,
	// then Drain of threads both running and not yet started.
	l.WriteString("## phases\n")
	w = NewWorld(Config{Seed: 7})
	r = w.Rand()
	for i := 0; i < 5; i++ {
		body := seededBody(&l, r.Split(), -1, nil)
		if i == 3 {
			inner := body
			body = func(th *Thread) {
				th.Advance(500) // still asleep when the drives stop
				inner(th)
			}
		}
		w.Spawn(fmt.Sprintf("p%d", i), body)
	}
	l.phase(w, "RunUntil", w.RunUntil(func() bool { return w.Now() >= 40 }))
	l.phase(w, "RunUntilDeadline", w.RunUntilDeadline(90, func() bool { return l.steps > 100000 }))
	mark := l.steps
	l.phase(w, "RunUntilDeadline", w.RunUntilDeadline(NoDeadline, func() bool { return l.steps >= mark+7 }))
	w.Spawn("late", seededBody(&l, r.Split(), 10, nil))
	w.Drain()
	l.phase(w, "Drain", nil)

	// A cycle limit reached with live threads, then Drain.
	l.WriteString("## deadlock\n")
	w = NewWorld(Config{Seed: 11, MaxCycles: 300})
	r = w.Rand()
	for i := 0; i < 5; i++ {
		w.Spawn(fmt.Sprintf("d%d", i), seededBody(&l, r.Split(), -1, nil))
	}
	l.phase(w, "Run", w.Run())
	w.Drain()
	l.phase(w, "Drain", nil)
	return l.String()
}

// TestScheduleGolden pins the exact interleaving the scheduler produces.
// Every derived artifact is a function of this order, so a scheduler
// change must reproduce it byte for byte. Run with -update-golden only
// after an intentional change to the scheduling order.
func TestScheduleGolden(t *testing.T) {
	got := runScheduleScenarios()
	path := filepath.Join("testdata", "schedule.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestScheduleGolden -update-golden): %v", err)
	}
	if got != string(want) {
		g, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(wl); i++ {
			if g[i] != wl[i] {
				t.Fatalf("schedule diverges at line %d: got %q, want %q", i+1, g[i], wl[i])
			}
		}
		t.Fatalf("schedule has %d lines, golden %d", len(g), len(wl))
	}
}

// checkGoroutines fails if goroutines outlive the threads that ran on
// them. A finished coroutine exits before next returns, so the count is
// back at base as soon as Drain returns.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines, want %d: simulated threads leaked", n, base)
	}
}

func TestDrainReleasesThreads(t *testing.T) {
	spin := func(th *Thread) {
		for {
			th.Advance(Cycles(th.ID() + 1))
		}
	}
	base := runtime.NumGoroutine()

	w := NewWorld(Config{Seed: 1})
	for i := 0; i < 4; i++ {
		w.Spawn("spin", spin)
	}
	w.Spawn("sleeper", func(th *Thread) { th.Advance(1000); spin(th) })
	if err := w.RunUntil(func() bool { return w.Now() >= 100 }); err != nil {
		t.Fatal(err)
	}
	w.Spawn("unstarted", spin)
	w.Drain()
	if n := w.LiveThreads(); n != 0 {
		t.Fatalf("RunUntil+Drain left %d live threads", n)
	}
	checkGoroutines(t, base)

	w = NewWorld(Config{Seed: 1, MaxCycles: 500})
	for i := 0; i < 4; i++ {
		w.Spawn("spin", spin)
	}
	var dl ErrDeadlock
	if err := w.Run(); !errors.As(err, &dl) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	w.Drain()
	if n := w.LiveThreads(); n != 0 {
		t.Fatalf("deadlock+Drain left %d live threads", n)
	}
	checkGoroutines(t, base)
}

func TestDrainSwallowsThreadPanics(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	unwinding := w.Spawn("panics-while-unwinding", func(th *Thread) {
		defer func() {
			if th.StopRequested() {
				panic("cleanup failed")
			}
		}()
		for {
			th.Advance(1)
		}
	})
	w.Spawn("not-yet-run", func(th *Thread) {
		th.Advance(1000)
		panic("never reached before Drain")
	})
	if err := w.RunUntil(func() bool { return w.Now() >= 10 }); err != nil {
		t.Fatal(err)
	}
	early := w.Spawn("panics-at-start", func(*Thread) { panic("boom") })
	w.Drain() // must not re-panic
	if n := w.LiveThreads(); n != 0 {
		t.Fatalf("Drain left %d live threads", n)
	}
	for _, th := range []*Thread{unwinding, early} {
		if th.err == nil {
			t.Errorf("thread %q: panic during Drain not recorded", th.Name())
		}
	}
}

func TestNestedSpawnPanicSurfaces(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	w.Spawn("parent", func(th *Thread) {
		th.Advance(10)
		th.World().Spawn("child", func(c *Thread) {
			c.Advance(1)
			panic("nested boom")
		})
		for i := 0; i < 100; i++ {
			th.Advance(5)
		}
	})
	defer w.Drain()
	defer func() {
		err, ok := recover().(error)
		const want = `sim: thread "child" panicked: nested boom`
		if !ok || err.Error() != want {
			t.Fatalf("Run panicked with %v, want %q", err, want)
		}
	}()
	_ = w.Run()
	t.Fatal("Run returned instead of panicking")
}
