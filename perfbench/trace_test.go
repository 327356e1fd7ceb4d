package main

import (
	"testing"
	"time"
)

var t0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	r := &Recorder{}
	// service.exec 0..100 with harness children 10..40 and 30..60 that
	// overlap each other (union 10..60), and a child spilling past the
	// parent 90..120 (clipped to 90..100). Covered: 60ms; self 40ms.
	exec := r.Add(0, "service.exec", "job", at(0), at(100))
	c1 := r.Add(exec, "harness.cell", "a", at(10), at(40))
	r.Add(exec, "harness.cell", "b", at(30), at(60))
	r.Add(exec, "harness.cell", "c", at(90), at(120))
	// A grandchild nested in c1 covers 15..25 of it.
	r.Add(c1, "store.put", "a", at(15), at(25))

	self := selfTimes(r.Spans())
	want := map[string]time.Duration{
		"service": 40 * time.Millisecond,
		// c1 30-10=20, b 30, c 30: overlapping siblings each keep their
		// own self time.
		"harness": 80 * time.Millisecond,
		"store":   10 * time.Millisecond,
	}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
	}
}

func TestAdoptPicksShortestContainingSpan(t *testing.T) {
	r := &Recorder{}
	outer := r.Add(0, "harness.run", "", at(0), at(100))
	inner := r.Add(0, "service.exec", "", at(10), at(50))
	r.Add(0, "store.lookup", "k", at(20), at(21))
	r.Add(0, "store.lookup", "k", at(60), at(61))
	r.Add(0, "store.lookup", "k", at(200), at(201))
	spans := r.Spans()
	adopt(spans, "store.lookup", "harness.run", "service.exec")
	if got := []int{spans[2].Parent, spans[3].Parent, spans[4].Parent}; got[0] != inner || got[1] != outer || got[2] != 0 {
		t.Errorf("parents = %v, want [%d %d 0]", got, inner, outer)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	if id := r.Add(0, "x.y", "", at(0), at(1)); id != 0 || r.Spans() != nil {
		t.Errorf("nil recorder recorded a span")
	}
}
