package interconnect

import (
	"testing"

	"coherentleak/internal/sim"
)

func newTestLink() *Link {
	return NewLink("test", 20, 8, sim.NewRand(7))
}

func TestNilRNGPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink(nil rng) did not panic")
		}
	}()
	NewLink("bad", 1, 1, nil)
}

func TestUncontendedTraverseIsBaseLatency(t *testing.T) {
	l := newTestLink()
	if got := l.Traverse(0); got != 20 {
		t.Fatalf("first traverse = %d, want base 20", got)
	}
}

func TestUtilizationEmpty(t *testing.T) {
	l := newTestLink()
	if u := l.Utilization(0); u != 0 {
		t.Fatalf("empty utilization = %v", u)
	}
}

func TestUtilizationGrowsWithTraffic(t *testing.T) {
	l := newTestLink()
	now := sim.Cycles(0)
	for i := 0; i < 100; i++ {
		l.Traverse(now)
		now += 10
	}
	u := l.Utilization(now)
	if u <= 0 {
		t.Fatalf("utilization = %v after heavy traffic", u)
	}
	if u > 0.95 {
		t.Fatalf("utilization %v above cap", u)
	}
}

func TestUtilizationDecaysAfterIdle(t *testing.T) {
	l := newTestLink()
	now := sim.Cycles(0)
	for i := 0; i < 100; i++ {
		l.Traverse(now)
		now += 10
	}
	busy := l.Utilization(now)
	idleLater := now + 100000
	if got := l.Utilization(idleLater); got >= busy {
		t.Fatalf("utilization did not decay: busy=%v later=%v", busy, got)
	}
	if got := l.Utilization(idleLater); got != 0 {
		t.Fatalf("utilization after long idle = %v, want 0", got)
	}
}

func TestQueuingDelayAppearsUnderLoad(t *testing.T) {
	l := newTestLink()
	now := sim.Cycles(0)
	sawQueueing := false
	for i := 0; i < 2000; i++ {
		if l.Traverse(now) > l.BaseLatency {
			sawQueueing = true
		}
		now += 5 // offered load ~1.6x service rate
	}
	if !sawQueueing {
		t.Fatal("no queuing delay under 160% offered load")
	}
	if l.MeanQueuing() <= 0 {
		t.Fatal("MeanQueuing not positive under load")
	}
}

func TestTraverseDeterministic(t *testing.T) {
	run := func() []sim.Cycles {
		l := newTestLink()
		var out []sim.Cycles
		now := sim.Cycles(0)
		for i := 0; i < 500; i++ {
			out = append(out, l.Traverse(now))
			now += 6
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traverse stream diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	l := newTestLink()
	for i := 0; i < 10; i++ {
		l.Traverse(sim.Cycles(i * 100000)) // spaced out: no queuing
	}
	if l.Messages != 10 {
		t.Fatalf("Messages = %d", l.Messages)
	}
	if l.TotalQueuing != 0 {
		t.Fatalf("spaced traffic accrued queuing %d", l.TotalQueuing)
	}
	if l.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestWindowMatchesNaiveCount: over bursts and lulls, the utilization
// the head-indexed window reports equals a recount of the departures
// inside the window, and the window's storage stays bounded by the
// busiest window rather than growing with the message count.
func TestWindowMatchesNaiveCount(t *testing.T) {
	l := newTestLink()
	rng := sim.NewRand(3)
	var all []sim.Cycles
	now := sim.Cycles(0)
	for i := 0; i < 50000; i++ {
		if rng.Bool(0.001) {
			now += 10000 // a lull that empties the window
		}
		now += sim.Cycles(rng.Intn(40))
		live := 0
		for _, d := range all {
			if now <= l.window || d >= now-l.window {
				live++
			}
		}
		want := min(float64(sim.Cycles(live)*l.ServiceCycles)/float64(l.window), 0.95)
		if got := l.Utilization(now); got != want {
			t.Fatalf("message %d at %d: utilization %v, recount %v", i, now, got, want)
		}
		l.Traverse(now)
		all = append(all, now)
		if len(all) > 1024 {
			all = all[len(all)-1024:] // far more than one window holds
		}
	}
	if c := cap(l.departures); c > 4096 {
		t.Fatalf("departure window grew to capacity %d over %d messages", c, 50000)
	}
}
