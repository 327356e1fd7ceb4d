package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almost(s.Mean, 3) || !almost(s.Min, 1) || !almost(s.Max, 5) || !almost(s.Median, 3) {
		t.Fatalf("summary = %+v", s)
	}
	if !almost(s.Std, math.Sqrt(2.5)) {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary has N != 0")
	}
	s := Summarize([]float64{7})
	if s.N != 1 || !almost(s.Mean, 7) || s.Std != 0 || !almost(s.Median, 7) {
		t.Fatalf("singleton summary = %+v", s)
	}
}

func TestPercentileEdges(t *testing.T) {
	data := []float64{10, 20, 30, 40}
	if !almost(Percentile(data, 0), 10) || !almost(Percentile(data, 100), 40) {
		t.Fatal("extreme percentiles wrong")
	}
	if !almost(Percentile(data, 50), 25) {
		t.Fatalf("median = %v", Percentile(data, 50))
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile not 0")
	}
}

func TestCDFShape(t *testing.T) {
	pts := CDF([]float64{3, 1, 2, 2})
	if len(pts) != 3 {
		t.Fatalf("CDF points = %v", pts)
	}
	if !almost(pts[0].X, 1) || !almost(pts[0].P, 0.25) {
		t.Fatalf("first point %+v", pts[0])
	}
	if !almost(pts[1].X, 2) || !almost(pts[1].P, 0.75) {
		t.Fatalf("second point %+v", pts[1])
	}
	if !almost(pts[2].P, 1) {
		t.Fatal("CDF does not reach 1")
	}
	if CDF(nil) != nil {
		t.Fatal("empty CDF not nil")
	}
}

// Property: CDF is monotone in both coordinates and ends at P=1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		pts := CDF(xs)
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].P <= pts[i-1].P {
				return false
			}
		}
		return almost(pts[len(pts)-1].P, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for _, x := range []float64{5, 15, 15, 95, -1, 100, 250} {
		h.Add(x)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Total() != 4 {
		t.Fatalf("total = %d", h.Total())
	}
	if !almost(h.Mode(), 15) {
		t.Fatalf("mode = %v", h.Mode())
	}
}

func TestHistogramPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram accepted")
		}
	}()
	NewHistogram(10, 10, 5)
}

func TestBandContainsOverlaps(t *testing.T) {
	a := Band{Name: "a", Lo: 90, Hi: 110}
	b := Band{Name: "b", Lo: 111, Hi: 140}
	if !a.Contains(90) || !a.Contains(110) || a.Contains(111) {
		t.Fatal("Contains wrong")
	}
	if a.Overlaps(b) || b.Overlaps(a) {
		t.Fatal("disjoint bands overlap")
	}
	c := Band{Lo: 100, Hi: 120}
	if !a.Overlaps(c) || !c.Overlaps(a) {
		t.Fatal("intersecting bands do not overlap")
	}
	if a.String() == "" {
		t.Fatal("empty band string")
	}
}

func TestCalibrateBand(t *testing.T) {
	b := CalibrateBand("x", []float64{95, 100, 105}, 3)
	if !almost(b.Lo, 92) || !almost(b.Hi, 108) || !almost(b.Center, 100) {
		t.Fatalf("band = %+v", b)
	}
}

func TestSeparation(t *testing.T) {
	a := Band{Lo: 90, Hi: 110}
	b := Band{Lo: 130, Hi: 150}
	if !almost(Separation(a, b), 20) || !almost(Separation(b, a), 20) {
		t.Fatal("separation wrong")
	}
	c := Band{Lo: 100, Hi: 120}
	if Separation(a, c) >= 0 {
		t.Fatal("overlapping bands have non-negative separation")
	}
}

func TestAccuracy(t *testing.T) {
	if !almost(Accuracy([]byte{1, 0, 1}, []byte{1, 0, 1}), 1) {
		t.Fatal("perfect accuracy != 1")
	}
	if !almost(Accuracy([]byte{1, 0, 1, 1}, []byte{1, 1, 1, 1}), 0.75) {
		t.Fatal("one flip in four != 0.75")
	}
	// Lost bits penalize against the longer (transmitted) length.
	if !almost(Accuracy([]byte{1, 0, 1, 1}, []byte{1, 0}), 0.5) {
		t.Fatal("lost bits not penalized")
	}
	// Duplicated bits penalize too.
	if !almost(Accuracy([]byte{1, 0}, []byte{1, 0, 0, 0}), 0.5) {
		t.Fatal("extra bits not penalized")
	}
	if !almost(Accuracy(nil, nil), 1) {
		t.Fatal("empty vs empty != 1")
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b []byte
		want int
	}{
		{nil, nil, 0},
		{[]byte{1}, nil, 1},
		{nil, []byte{1, 0}, 2},
		{[]byte{1, 0, 1}, []byte{1, 0, 1}, 0},
		{[]byte{1, 0, 1}, []byte{1, 1, 1}, 1},
		{[]byte{1, 0, 1, 0}, []byte{1, 1, 0}, 1}, // delete the first 0
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// A single lost bit early in a long stream must cost ~one error, not
// desynchronize every later position.
func TestAccuracyRobustToShift(t *testing.T) {
	want := make([]byte, 100)
	for i := range want {
		want[i] = byte(i % 2)
	}
	got := append([]byte(nil), want[1:]...) // first bit lost
	if a := Accuracy(want, got); a < 0.98 {
		t.Fatalf("one lost bit -> accuracy %v, want ~0.99", a)
	}
	if a := PositionalAccuracy(want, got); a > 0.1 {
		t.Fatalf("positional accuracy should collapse on shift, got %v", a)
	}
}

func TestKbps(t *testing.T) {
	if !almost(Kbps(700_000, 1.0), 700) {
		t.Fatal("700k bits in 1s != 700 Kbps")
	}
	if Kbps(100, 0) != 0 {
		t.Fatal("zero duration not guarded")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint8, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		sort.Float64s(xs)
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		va, vb := Percentile(xs, a), Percentile(xs, b)
		return va <= vb && va >= xs[0] && vb <= xs[len(xs)-1]
	}
	// Two equal values at p 10 and 60 once drew a result one ulp
	// outside them.
	if !f([]uint8{114, 114}, 60, 212) {
		t.Fatal("percentile of {114, 114} at p 10 and 60 leaves [114, 114] or is not monotone")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
