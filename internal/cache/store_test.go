package cache

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"coherentleak/internal/coherence"
)

// xeonLLC is the default 12 MiB, 16-way, 12288-set LLC geometry.
var xeonLLC = Geometry{SizeBytes: 12 << 20, Ways: 16}

// TestLookupPointerSurvivesFills: the *Line Lookup returns must stay the
// live line while other sets fill and the store appends blocks.
func TestLookupPointerSurvivesFills(t *testing.T) {
	c := MustNew(xeonLLC, PolicyLRU)
	const addr = 0x40
	c.Insert(addr, coherence.Exclusive)
	l := c.Lookup(addr)
	if l == nil {
		t.Fatal("Lookup missed a just-inserted line")
	}
	sets := uint64(c.Geometry().Sets())
	home := c.SetIndexOf(addr)
	for i := uint64(1); i <= 10000; i++ {
		c.Insert((home+i)%sets*LineSize, coherence.Shared) // 10k other sets
	}
	if c.ValidLines() != 10001 {
		t.Fatalf("ValidLines = %d, want 10001", c.ValidLines())
	}
	l.setState(coherence.Modified)
	if got := c.Probe(addr); got != coherence.Modified {
		t.Fatalf("write through the old *Line not seen: Probe = %v", got)
	}
	if again := c.Lookup(addr); again != l {
		t.Fatal("Lookup returns a different *Line after 10k fills")
	}
}

// validLines lists ForEachValid's visits as "set:addr:state".
func validLines(c *Cache) []string {
	var out []string
	c.ForEachValid(func(addr uint64, st coherence.State) {
		out = append(out, fmt.Sprintf("%d:%#x:%v", c.SetIndexOf(addr), addr, st))
	})
	return out
}

// TestForEachValidSetMajor: visits are set-major in ascending set order
// however the sets were first filled.
func TestForEachValidSetMajor(t *testing.T) {
	geo := Geometry{SizeBytes: 256 * 2 * LineSize, Ways: 2}
	rng := rand.New(rand.NewPCG(1, 2))
	order := rng.Perm(256)
	c := MustNew(geo, PolicyLRU)
	for _, s := range order {
		c.Insert(uint64(s)*LineSize, coherence.Shared)
		c.Insert(uint64(s+256)*LineSize, coherence.Exclusive)
	}
	var sets []uint64
	c.ForEachValid(func(addr uint64, _ coherence.State) { sets = append(sets, c.SetIndexOf(addr)) })
	if len(sets) != 512 {
		t.Fatalf("visited %d lines, want 512", len(sets))
	}
	if !slices.IsSorted(sets) {
		t.Fatalf("ForEachValid not set-major: %v", sets)
	}
	// The same lines filled in ascending set order visit identically.
	asc := MustNew(geo, PolicyLRU)
	for s := 0; s < 256; s++ {
		asc.Insert(uint64(s)*LineSize, coherence.Shared)
		asc.Insert(uint64(s+256)*LineSize, coherence.Exclusive)
	}
	if got, want := validLines(c), validLines(asc); !slices.Equal(got, want) {
		t.Fatalf("visit order depends on fill order:\n got %v\nwant %v", got, want)
	}
}

// TestClearMatchesFresh: a cleared cache reuses its blocks with the sets
// placed in a new first-fill order, yet behaves exactly like a fresh one
// — same evictions, ValidLines and ForEachValid — under every policy.
func TestClearMatchesFresh(t *testing.T) {
	geo := Geometry{SizeBytes: 96 * 4 * LineSize, Ways: 4}
	drive := func(c *Cache, seed uint64) []Evicted {
		rng := rand.New(rand.NewPCG(seed, 7))
		var evs []Evicted
		for i := 0; i < 2000; i++ {
			a := uint64(rng.IntN(1024)) * LineSize
			switch rng.IntN(4) {
			case 0:
				c.Lookup(a)
			case 1:
				c.Invalidate(a)
			default:
				if ev, ok := c.Insert(a, coherence.Shared); ok {
					evs = append(evs, ev)
				}
			}
		}
		return evs
	}
	for _, info := range Policies() {
		t.Run(info.Name, func(t *testing.T) {
			used := MustNew(geo, info.Policy)
			drive(used, 1)
			used.Clear()
			if used.ValidLines() != 0 {
				t.Fatalf("Clear left %d valid lines", used.ValidLines())
			}
			fresh := MustNew(geo, info.Policy)
			if got, want := drive(used, 2), drive(fresh, 2); !slices.Equal(got, want) {
				t.Fatalf("evictions after Clear differ from a fresh cache:\n got %v\nwant %v", got, want)
			}
			if used.ValidLines() != fresh.ValidLines() {
				t.Fatalf("ValidLines %d after Clear, fresh %d", used.ValidLines(), fresh.ValidLines())
			}
			if got, want := validLines(used), validLines(fresh); !slices.Equal(got, want) {
				t.Fatalf("ForEachValid after Clear differs:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestLineIs16Bytes pins the set footprint: a 16-way set of 8-byte
// Lines spans two 64-byte host cache lines. The name predates the
// 8-byte layout and is kept so the test's history stays in one place;
// the bound is what it checks.
func TestLineIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 8 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want 8", n)
	}
}

// TestStampWrapKeepsVictims: a cache whose 24-bit stamp clock wraps —
// from a few ticks below stampMax at the start and, with full sets, at
// three later points — makes exactly the choices of a fresh cache fed the same
// random Lookup, Insert, InsertAbsent and Invalidate stream: the same
// hits, the same Evicted sequence and the same ForEachValid contents,
// under every policy.
func TestStampWrapKeepsVictims(t *testing.T) {
	geo := Geometry{SizeBytes: 16 * 8 * LineSize, Ways: 8}
	states := []coherence.State{coherence.Shared, coherence.Exclusive, coherence.Modified}
	for _, info := range Policies() {
		t.Run(info.Name, func(t *testing.T) {
			fresh, wrapped := MustNew(geo, info.Policy), MustNew(geo, info.Policy)
			wrapped.clock = stampMax - 3
			rng := rand.New(rand.NewPCG(uint64(info.Policy), 9))
			var evs []Evicted
			for i := 0; i < 20000; i++ {
				if i%5000 == 4000 {
					wrapped.clock = stampMax - uint32(rng.IntN(8))
				}
				a := uint64(rng.IntN(16*8*3)) * LineSize
				switch rng.IntN(4) {
				case 0:
					if (fresh.Lookup(a) == nil) != (wrapped.Lookup(a) == nil) {
						t.Fatalf("op %d: Lookup(%#x) hit in one cache only", i, a)
					}
				case 1:
					if got, want := wrapped.Invalidate(a), fresh.Invalidate(a); got != want {
						t.Fatalf("op %d: Invalidate(%#x) = %v, fresh %v", i, a, got, want)
					}
				default:
					st := states[rng.IntN(len(states))]
					insert := (*Cache).Insert
					if !fresh.Contains(a) && rng.IntN(2) == 0 {
						insert = (*Cache).InsertAbsent
					}
					ev, ok := insert(fresh, a, st)
					wev, wok := insert(wrapped, a, st)
					if ev != wev || ok != wok {
						t.Fatalf("op %d: insert %#x evicted %v,%v; fresh %v,%v", i, a, wev, wok, ev, ok)
					}
					if ok {
						evs = append(evs, ev)
					}
				}
			}
			if len(evs) < 1000 || wrapped.clock >= fresh.clock {
				t.Fatalf("%d evictions, clocks wrapped %d fresh %d: the stream did not exercise the wrap", len(evs), wrapped.clock, fresh.clock)
			}
			if got, want := validLines(wrapped), validLines(fresh); !slices.Equal(got, want) {
				t.Fatalf("ForEachValid after the wrap differs:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestQuotientTagsRoundTrip: a Line keeps only the quotient of its line
// number by the set count, so every address the cache reports is
// rebuilt from set and tag. In the 12288-set LLC and in each cache of
// the machine package's SmallConfig, lines with small and with the
// largest 32-bit quotients come back as inserted through Evicted.Addr,
// SetAddrs, ForEachValid, CleanLines and WayOf; a line whose quotient
// needs 33 bits misses without aliasing the line whose tag holds its low
// 32 bits, and inserting it panics.
func TestQuotientTagsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		geo  Geometry
	}{
		{"xeon-LLC", xeonLLC},
		{"small-L1", Geometry{SizeBytes: 2 << 10, Ways: 4}},
		{"small-L2", Geometry{SizeBytes: 8 << 10, Ways: 4}},
		{"small-LLC", Geometry{SizeBytes: 64 << 10, Ways: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := MustNew(tc.geo, PolicyLRU)
			sets, ways := uint64(tc.geo.Sets()), tc.geo.Ways
			set := sets - 1
			addr := func(q uint64) uint64 { return (q*sets + set) * LineSize }
			// At least one more line than the set holds: each insert into
			// the full set evicts the least recent line.
			qs := []uint64{0, 1, 2, 1 << 20, math.MaxUint32 - 1, math.MaxUint32}
			for len(qs) < ways+1 {
				qs = append(qs, 3+uint64(len(qs)))
			}
			var want []uint64
			for i, q := range qs {
				ev, ok := c.InsertClean(addr(q), coherence.Exclusive)
				if i < ways {
					want = append(want, addr(q))
					if ok {
						t.Fatalf("insert %d of %d evicted %v", i, ways, ev)
					}
					continue
				}
				if !ok || ev.Addr != want[0] || ev.State != coherence.Exclusive {
					t.Fatalf("the set's LRU victim came back as %v,%v, want %#x", ev, ok, want[0])
				}
				want = append(want[1:], addr(q))
			}
			sorted := slices.Clone(want)
			slices.Sort(sorted)
			got := c.SetAddrs(addr(7))
			if slices.Sort(got); !slices.Equal(got, sorted) {
				t.Errorf("SetAddrs = %#x, want %#x", got, sorted)
			}
			var seen []uint64
			c.ForEachValid(func(a uint64, st coherence.State) {
				if st != coherence.Exclusive {
					t.Errorf("ForEachValid: %#x in %v", a, st)
				}
				seen = append(seen, a)
			})
			if slices.Sort(seen); !slices.Equal(seen, sorted) {
				t.Errorf("ForEachValid visited %#x, want %#x", seen, sorted)
			}
			if got := c.CleanLines(); !slices.Equal(got, sorted) {
				t.Errorf("CleanLines = %#x, want %#x", got, sorted)
			}
			used := map[int]bool{}
			for _, a := range want {
				w, ok := c.WayOf(a)
				if !ok || used[w] {
					t.Errorf("WayOf(%#x) = %d,%v", a, w, ok)
				}
				used[w] = true
			}

			// Quotient 2^32 keeps tag 0's low bits; it must not hit tag 0.
			c.Insert(addr(0), coherence.Shared)
			wide := addr(1 << 32)
			if c.Probe(wide).Valid() || c.Lookup(wide) != nil || c.Contains(wide) {
				t.Fatalf("a 33-bit quotient hit the line with tag 0")
			}
			if _, ok := c.WayOf(wide); ok || c.Invalidate(wide).Valid() || c.SetState(wide, coherence.Shared) {
				t.Fatalf("a 33-bit quotient found the line with tag 0")
			}
			defer func() {
				if recover() == nil {
					t.Fatal("inserting a line with a 33-bit quotient did not panic")
				}
			}()
			c.Insert(wide, coherence.Shared)
		})
	}
}
