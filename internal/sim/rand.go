package sim

// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic decision in the reproduction (latency jitter, noise
// workload addresses, page contents) flows from instances of Rand seeded
// explicitly by the caller. The simulator never consults the wall clock or
// the global math/rand state, so a given configuration regenerates every
// figure bit-identically.
//
// The generator is xoshiro256** with a SplitMix64 seeding sequence, the
// same construction used by the Go runtime; it is small, fast and has no
// detectable bias at the sample counts used here (millions of draws).

import "math/bits"

// Rand is a deterministic pseudo-random number generator.
// The zero value is not valid; use NewRand.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from seed via SplitMix64.
// Two generators with the same seed produce identical streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros; SplitMix64 cannot
	// produce four zero outputs in a row, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split returns a new generator whose stream is independent of r's
// continued use. It is the supported way to hand child components their
// own deterministic randomness.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's method.
// It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n called with zero n")
	}
	// Unbiased bounded generation (Lemire, rejection on the low word).
	thresh := -n % n
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= thresh {
			return hi
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Jitter returns a value in [-width, +width], triangular-distributed
// around zero. Triangular noise matches the narrow, peaked latency bands
// observed in the paper's Figure 2 better than uniform noise.
func (r *Rand) Jitter(width int64) int64 {
	if width <= 0 {
		return 0
	}
	a := int64(r.Uint64n(uint64(width)*2+1)) - width
	b := int64(r.Uint64n(uint64(width)*2+1)) - width
	return (a + b) / 2
}

// Geometric returns a draw from a geometric distribution with success
// probability p (support {0, 1, 2, ...}), capped at max. It models
// queuing-delay tail lengths.
func (r *Rand) Geometric(p float64, max int) int {
	if p >= 1 || max <= 0 {
		return 0
	}
	if p <= 0 {
		return max
	}
	n := 0
	for n < max && !r.Bool(p) {
		n++
	}
	return n
}

// Perm fills dst with a random permutation of [0, len(dst)).
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
