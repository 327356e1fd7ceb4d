package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: nearestRank must sort
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	xs := seq(10) // 1..10
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("nearestRank sorted its input in place")
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		okay bool
	}{
		{1000, 99, true}, // rank 990, 10 beyond
		{1100, 99, true}, // rank 1089, 11 beyond
		{999, 98, true},  // p99 would leave 9
		{250, 96, true},  // rank 240, 10 beyond
		{54, 81, true},   // rank 44, 10 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{19, 0, false},   // p50 leaves 9
		{10, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.okay || p != c.p {
			t.Errorf("tailPercentile(%d) = p%v, %v; want p%v, %v", c.n, p, ok, c.p, c.okay)
			continue
		}
		if ok && c.n-rank(c.n, p) < minBeyond {
			t.Errorf("n=%d p%v leaves %d beyond", c.n, p, c.n-rank(c.n, p))
		}
	}
	v, p, err := tail(seq(1000))
	if err != nil || p != 99 || v != 990 {
		t.Errorf("tail(1..1000) = %v at p%v, %v; want 990 at p99", v, p, err)
	}
	if _, _, err := tail(seq(15)); err == nil {
		t.Errorf("tail of 15 samples should fail")
	}
}
