package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

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
	l.State = coherence.Modified
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
