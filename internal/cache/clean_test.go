package cache

import (
	"math/rand/v2"
	"slices"
	"testing"

	"coherentleak/internal/coherence"
)

// forEachPolicy runs fn on a fresh 4-set, 8-way cache under every
// registered replacement policy, and on a fresh 12-set, 8-way one, whose
// set count is not a power of two, so its tags are quotients of a true
// division (subtests named <policy>-12sets).
func forEachPolicy(t *testing.T, fn func(t *testing.T, c *Cache)) {
	for _, info := range Policies() {
		t.Run(info.Name, func(t *testing.T) {
			fn(t, MustNew(Geometry{SizeBytes: 4 * 8 * LineSize, Ways: 8}, info.Policy))
		})
		t.Run(info.Name+"-12sets", func(t *testing.T) {
			fn(t, MustNew(Geometry{SizeBytes: 12 * 8 * LineSize, Ways: 8}, info.Policy))
		})
	}
}

// setLine returns the k-th line of c's set 0.
func setLine(c *Cache, k int) uint64 { return uint64(k*c.Geometry().Sets()) * LineSize }

// capacity returns the number of lines c holds.
func capacity(c *Cache) int { return c.Geometry().Sets() * c.Geometry().Ways }

func TestInsertCleanSetsMark(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, c *Cache) {
		c.InsertClean(0x40, coherence.Shared)
		if !c.Clean(0x40) || !c.Clean(0x7f) {
			t.Fatal("clean insert left the mark clear")
		}
		if got := c.CleanLines(); !slices.Equal(got, []uint64{0x40}) {
			t.Fatalf("CleanLines = %#x", got)
		}
	})
}

func TestPlainFillLeavesMarkClear(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, c *Cache) {
		c.Insert(0x40, coherence.Shared)
		c.InsertAbsent(0x80, coherence.Exclusive)
		if c.Clean(0x40) || c.Clean(0x80) || len(c.CleanLines()) != 0 {
			t.Fatal("plain fill set the mark")
		}
	})
}

// A refill of a present line: a clean refill marks it, a plain refill
// keeps its mark as it was.
func TestRefillKeepsMark(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, c *Cache) {
		c.Insert(0x40, coherence.Shared)
		if _, ok := c.InsertClean(0x40, coherence.Shared); ok || !c.Clean(0x40) {
			t.Fatal("clean refill of a plain line not marked")
		}
		c.Insert(0x40, coherence.Modified)
		if !c.Clean(0x40) || c.Probe(0x40) != coherence.Modified {
			t.Fatal("plain refill dropped the mark or kept the old state")
		}
		c.ClearClean(0x40)
		c.Insert(0x40, coherence.Shared)
		if c.Clean(0x40) {
			t.Fatal("plain refill set a cleared mark")
		}
		if c.ValidLines() != 1 {
			t.Fatalf("refills left %d lines, want 1", c.ValidLines())
		}
	})
}

func TestMarkDroppedByEvictionInvalidateClear(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, c *Cache) {
		for k := 0; k < 8; k++ {
			c.InsertClean(setLine(c, k), coherence.Shared)
		}
		ev, ok := c.InsertClean(setLine(c, 8), coherence.Shared)
		if !ok {
			t.Fatal("full set did not evict")
		}
		if c.Clean(ev.Addr) {
			t.Fatal("evicted line still marked")
		}
		c.Insert(ev.Addr, coherence.Shared) // a fresh fill, not a refill
		if c.Clean(ev.Addr) {
			t.Fatal("the evicted line's mark came back with a plain fill")
		}

		a := setLine(c, 8)
		c.Invalidate(a)
		if c.Clean(a) {
			t.Fatal("Invalidate kept the mark")
		}
		c.Insert(a, coherence.Shared)
		if c.Clean(a) {
			t.Fatal("Invalidate's mark came back with a plain fill")
		}

		c.InsertClean(0x40, coherence.Shared)
		c.SetState(0x40, coherence.Invalid)
		if c.Clean(0x40) {
			t.Fatal("SetState(Invalid) kept the mark")
		}

		c.InsertClean(0x40, coherence.Shared)
		c.Clear()
		if c.Clean(0x40) || len(c.CleanLines()) != 0 {
			t.Fatal("Clear kept a mark")
		}
	})
}

func TestClearCleanOfAbsentLine(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, c *Cache) {
		c.InsertClean(setLine(c, 0), coherence.Shared)
		before, stats := c.CleanLines(), c.Stats
		c.ClearClean(setLine(c, 1)) // same set, absent
		c.ClearClean(0x40)          // a set never filled
		if !slices.Equal(c.CleanLines(), before) || c.Stats != stats || c.ValidLines() != 1 {
			t.Fatal("ClearClean of an absent line changed the cache")
		}
		if c.set(c.SetIndexOf(0x40)) != nil {
			t.Fatal("ClearClean filled a set")
		}
	})
}

// The same stream of fills over twice as many lines as fit, one cache
// using clean inserts and the other plain ones, evicts the same victims
// and ends with the same lines.
func TestCleanAndPlainInsertsChooseSameVictim(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, clean *Cache) {
		plain := MustNew(clean.Geometry(), clean.Policy())
		r := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < 4000; i++ {
			a := uint64(r.IntN(2*capacity(clean))) * LineSize
			if r.IntN(4) == 0 {
				clean.Lookup(a)
				plain.Lookup(a)
				continue
			}
			ec, okc := clean.InsertClean(a, coherence.Shared)
			ep, okp := plain.Insert(a, coherence.Shared)
			if ec != ep || okc != okp {
				t.Fatalf("fill %d of %#x: clean evicted %v/%v, plain %v/%v", i, a, ec, okc, ep, okp)
			}
		}
		if !slices.Equal(validLines(clean), validLines(plain)) {
			t.Fatal("the caches ended with different lines")
		}
	})
}

// Property: Clean answers like a map model of present lines and their
// marks after every operation, over half as many lines again as fit.
func TestCleanMatchesModel(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, c *Cache) {
		r := rand.New(rand.NewPCG(3, 4))
		lines := 3 * capacity(c) / 2
		model := map[uint64]bool{} // present line -> clean mark
		drop := func(ev Evicted, ok bool) {
			if ok {
				delete(model, ev.Addr)
			}
		}
		for i := 0; i < 20000; i++ {
			a := uint64(r.IntN(lines)) * LineSize
			switch r.IntN(9) {
			case 0, 1:
				drop(c.InsertClean(a, coherence.Shared))
				model[a] = true
			case 2:
				drop(c.Insert(a, coherence.Shared))
				model[a] = model[a] // a refill keeps the mark
			case 3:
				if _, ok := model[a]; !ok {
					drop(c.InsertAbsent(a, coherence.Shared))
					model[a] = false
				}
			case 4:
				c.ClearClean(a)
				if _, ok := model[a]; ok {
					model[a] = false
				}
			case 5:
				c.Invalidate(a)
				delete(model, a)
			case 6:
				c.SetState(a, coherence.Invalid)
				delete(model, a)
			case 7:
				c.Lookup(a)
			case 8:
				if r.IntN(50) == 0 {
					c.Clear()
					clear(model)
				}
			}
			for _, b := range []uint64{a, a, uint64(r.IntN(lines)) * LineSize} {
				if got := c.Clean(b); got != model[b] {
					t.Fatalf("op %d: Clean(%#x) = %v, model %v", i, b, got, model[b])
				}
			}
		}
		var want []uint64
		for a, cl := range model {
			if cl {
				want = append(want, a)
			}
		}
		slices.Sort(want)
		if got := c.CleanLines(); !slices.Equal(got, want) {
			t.Fatalf("CleanLines = %#x, model %#x", got, want)
		}
	})
}
