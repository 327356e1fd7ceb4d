package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for the tail to mean anything.
const minBeyond = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. xs need not be sorted; it is not modified.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest percentile the samples support: p99
// when at least minBeyond samples lie beyond it, else the highest whole
// percentile that still leaves minBeyond samples beyond its rank. ok is
// false when there are too few samples for any tail (n <= minBeyond).
func tailPercentile(n int) (p float64, ok bool) {
	for p = 99; p >= 50; p-- {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// tail reports the tail latency of xs with the percentile it used.
func tail(xs []float64) (value, p float64, err error) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		return 0, 0, fmt.Errorf("tail: %d samples leave fewer than %d beyond p50", len(xs), minBeyond)
	}
	return nearestRank(xs, p), p, nil
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return nearestRank(xs, 50) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
