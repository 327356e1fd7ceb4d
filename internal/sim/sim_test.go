package sim

import (
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRandSplitIndependent(t *testing.T) {
	root := NewRand(7)
	child := root.Split()
	// The child stream must not simply replay the parent stream.
	parent2 := NewRand(7)
	parent2.Uint64() // consume the draw Split used
	diverged := false
	for i := 0; i < 50; i++ {
		if child.Uint64() != parent2.Uint64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("Split stream replays parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values in 10k draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestJitterBoundsProperty(t *testing.T) {
	r := NewRand(9)
	f := func(width uint8) bool {
		w := int64(width % 64)
		j := r.Jitter(w)
		return j >= -w && j <= w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestJitterZeroWidth(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 100; i++ {
		if r.Jitter(0) != 0 {
			t.Fatal("Jitter(0) != 0")
		}
	}
}

func TestJitterCentered(t *testing.T) {
	r := NewRand(11)
	sum := int64(0)
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Jitter(8)
	}
	mean := float64(sum) / n
	if mean < -0.5 || mean > 0.5 {
		t.Fatalf("Jitter(8) mean = %v, want ~0", mean)
	}
}

func TestGeometricBounds(t *testing.T) {
	r := NewRand(13)
	for i := 0; i < 1000; i++ {
		g := r.Geometric(0.5, 10)
		if g < 0 || g > 10 {
			t.Fatalf("Geometric out of bounds: %d", g)
		}
	}
	if r.Geometric(1.0, 10) != 0 {
		t.Fatal("Geometric(p=1) should be 0")
	}
	if r.Geometric(0, 10) != 10 {
		t.Fatal("Geometric(p=0) should hit the cap")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(17)
	dst := make([]int, 50)
	r.Perm(dst)
	seen := make([]bool, 50)
	for _, v := range dst {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", dst)
		}
		seen[v] = true
	}
}

func TestWorldSingleThread(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	var trace []Cycles
	w.Spawn("a", func(th *Thread) {
		th.Advance(10)
		trace = append(trace, th.Now())
		th.Advance(5)
		trace = append(trace, th.Now())
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("trace = %v, want [10 15]", trace)
	}
	if w.LiveThreads() != 0 {
		t.Fatal("thread did not finish")
	}
}

func TestWorldInterleavingByVirtualTime(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	var order []string
	w.Spawn("slow", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Advance(10)
			order = append(order, "slow")
		}
	})
	w.Spawn("fast", func(th *Thread) {
		for i := 0; i < 6; i++ {
			th.Advance(5)
			order = append(order, "fast")
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// fast@5, {slow@10, fast@10 — slow has lower id}, fast@15, ...
	want := []string{"fast", "slow", "fast", "fast", "slow", "fast", "fast", "slow", "fast"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, order[i], want[i], order)
		}
	}
}

func TestWorldTieBrokenBySpawnOrder(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		w.Spawn(name, func(th *Thread) {
			th.Advance(1)
			order = append(order, name)
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("tie order = %v, want [a b c]", order)
	}
}

func TestWorldSpawnFromThread(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	childRan := false
	w.Spawn("parent", func(th *Thread) {
		th.Advance(100)
		th.World().Spawn("child", func(c *Thread) {
			if c.Now() != 100 {
				t.Errorf("child started at %d, want 100", c.Now())
			}
			c.Advance(1)
			childRan = true
		})
		th.Advance(10)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("dynamically spawned child never ran")
	}
}

func TestWorldStopThread(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	iters := 0
	victim := w.Spawn("victim", func(th *Thread) {
		for {
			th.Advance(1)
			iters++
		}
	})
	w.Spawn("killer", func(th *Thread) {
		th.Advance(50)
		th.World().StopThread(victim)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !victim.Finished() {
		t.Fatal("victim not finished after stop")
	}
	if iters == 0 || iters > 60 {
		t.Fatalf("victim ran %d iterations, want ~50", iters)
	}
}

func TestWorldRunUntilAndDrain(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	w.Spawn("forever", func(th *Thread) {
		for {
			th.Advance(1)
		}
	})
	err := w.RunUntilDeadline(99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Now() < 100 {
		t.Fatalf("stopped at %d, want >= 100", w.Now())
	}
	w.Drain()
	if w.LiveThreads() != 0 {
		t.Fatal("Drain left live threads")
	}
}

func TestWorldDeadlockLimit(t *testing.T) {
	w := NewWorld(Config{Seed: 1, MaxCycles: 1000})
	w.Spawn("spinner", func(th *Thread) {
		for {
			th.Advance(100)
		}
	})
	err := w.Run()
	if _, ok := err.(ErrDeadlock); !ok {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	w.Drain()
}

func TestWorldPanicPropagates(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	w.Spawn("bad", func(th *Thread) {
		th.Advance(1)
		panic("boom")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("thread panic did not propagate")
		}
	}()
	_ = w.Run()
}

func TestThreadNowMatchesAdvances(t *testing.T) {
	f := func(steps []uint8) bool {
		w := NewWorld(Config{Seed: 2})
		ok := true
		w.Spawn("t", func(th *Thread) {
			var total Cycles
			for _, s := range steps {
				th.Advance(Cycles(s))
				total += Cycles(s)
				if th.Now() != total {
					ok = false
				}
			}
		})
		if err := w.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedStateNeedsNoLocking(t *testing.T) {
	// Cooperative scheduling means plain counters are safe across threads.
	w := NewWorld(Config{Seed: 1})
	counter := 0
	for i := 0; i < 8; i++ {
		w.Spawn("worker", func(th *Thread) {
			for j := 0; j < 1000; j++ {
				counter++
				th.Advance(1)
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

func TestSnapshotMentionsThreads(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	w.Spawn("alpha", func(th *Thread) { th.Advance(1) })
	_ = w.Run()
	s := w.Snapshot()
	if len(s) == 0 {
		t.Fatal("empty snapshot")
	}
}

func TestYieldGivesTurnWithoutTime(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	var order []string
	w.Spawn("b-first-by-time", func(th *Thread) {
		th.Advance(5)
		order = append(order, "slow")
	})
	w.Spawn("yielder", func(th *Thread) {
		// Yield keeps the clock at 0 but re-enters the scheduler; the
		// lower-timestamp work still runs before anything at t=5.
		th.Yield()
		if th.Now() != 0 {
			t.Errorf("Yield advanced the clock to %d", th.Now())
		}
		th.Advance(10)
		order = append(order, "yielder")
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "slow" || order[1] != "yielder" {
		t.Fatalf("order = %v", order)
	}
}
