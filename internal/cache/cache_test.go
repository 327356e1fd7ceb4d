package cache

import (
	"testing"
	"testing/quick"

	"coherentleak/internal/coherence"
)

func smallCache(t *testing.T, ways int) *Cache {
	t.Helper()
	// 4 sets x `ways` ways.
	c, err := New(Geometry{SizeBytes: 4 * ways * LineSize, Ways: ways}, PolicyLRU)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometryValidate(t *testing.T) {
	good := Geometry{SizeBytes: 32 * 1024, Ways: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	if good.Sets() != 64 {
		t.Fatalf("Sets() = %d, want 64", good.Sets())
	}
	bads := []Geometry{
		{SizeBytes: 0, Ways: 8},
		{SizeBytes: 32 * 1024, Ways: 0},
		{SizeBytes: 1000, Ways: 2}, // not divisible by ways*linesize
		{SizeBytes: -64, Ways: 1},
	}
	for _, g := range bads {
		if err := g.Validate(); err == nil {
			t.Errorf("geometry %+v accepted", g)
		}
	}
	// Non-power-of-two set counts are legal (the Xeon LLC has 12288 sets).
	if err := (Geometry{SizeBytes: 3 * 64 * 64, Ways: 1}).Validate(); err != nil {
		t.Errorf("192-set geometry rejected: %v", err)
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Fatalf("LineAddr(0x1234) = %#x", LineAddr(0x1234))
	}
	if LineAddr(0x1240) != 0x1240 {
		t.Fatal("aligned address changed")
	}
}

func TestInsertLookupHitMiss(t *testing.T) {
	c := smallCache(t, 2)
	const a = 0x1000
	if c.Lookup(a) != nil {
		t.Fatal("hit on empty cache")
	}
	c.Insert(a, coherence.Exclusive)
	l := c.Lookup(a)
	if l == nil || l.State() != coherence.Exclusive {
		t.Fatal("inserted line not found")
	}
	// Sub-line addresses hit the same line.
	if c.Lookup(a+63) == nil {
		t.Fatal("sub-line address missed")
	}
	if c.Lookup(a+64) != nil {
		t.Fatal("next line spuriously hit")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	c := smallCache(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(Invalid) did not panic")
		}
	}()
	c.Insert(0x40, coherence.Invalid)
}

func TestProbeHasNoSideEffects(t *testing.T) {
	c := smallCache(t, 2)
	c.Insert(0x40, coherence.Shared)
	before := c.Stats
	if c.Probe(0x40) != coherence.Shared {
		t.Fatal("Probe missed")
	}
	if c.Probe(0x999000) != coherence.Invalid {
		t.Fatal("Probe hit absent line")
	}
	if c.Stats != before {
		t.Fatal("Probe changed stats")
	}
}

func TestEvictionReturnsVictim(t *testing.T) {
	c := smallCache(t, 2) // 4 sets, 2 ways
	// Three lines mapping to the same set: set stride is 4*64 = 256.
	a0, a1, a2 := uint64(0x0), uint64(0x400), uint64(0x800)
	if c.SetIndexOf(a0) != c.SetIndexOf(a1) || c.SetIndexOf(a1) != c.SetIndexOf(a2) {
		t.Fatal("test addresses do not conflict")
	}
	c.Insert(a0, coherence.Modified)
	c.Insert(a1, coherence.Shared)
	ev, ok := c.Insert(a2, coherence.Exclusive)
	if !ok {
		t.Fatal("no eviction from full set")
	}
	if ev.Addr != a0 || ev.State != coherence.Modified {
		t.Fatalf("evicted %+v, want a0/M", ev)
	}
	if c.Contains(a0) {
		t.Fatal("victim still present")
	}
}

func TestLRUVictimChoice(t *testing.T) {
	c := smallCache(t, 2)
	a0, a1, a2 := uint64(0x0), uint64(0x400), uint64(0x800)
	c.Insert(a0, coherence.Shared)
	c.Insert(a1, coherence.Shared)
	c.Lookup(a0) // a0 now more recent than a1
	ev, ok := c.Insert(a2, coherence.Shared)
	if !ok || ev.Addr != a1 {
		t.Fatalf("LRU evicted %#x, want a1", ev.Addr)
	}
}

func TestReFillUpdatesStateWithoutEviction(t *testing.T) {
	c := smallCache(t, 2)
	c.Insert(0x40, coherence.Exclusive)
	ev, ok := c.Insert(0x40, coherence.Shared)
	if ok {
		t.Fatalf("re-fill evicted %+v", ev)
	}
	if c.Probe(0x40) != coherence.Shared {
		t.Fatal("re-fill did not update state")
	}
	if c.ValidLines() != 1 {
		t.Fatal("duplicate line created")
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := smallCache(t, 2)
	c.Insert(0x40, coherence.Exclusive)
	if !c.SetState(0x40, coherence.Shared) {
		t.Fatal("SetState missed present line")
	}
	if c.Probe(0x40) != coherence.Shared {
		t.Fatal("state not updated")
	}
	if c.SetState(0x5000, coherence.Shared) {
		t.Fatal("SetState hit absent line")
	}
	if prior := c.Invalidate(0x40); prior != coherence.Shared {
		t.Fatalf("Invalidate prior = %v", prior)
	}
	if c.Contains(0x40) {
		t.Fatal("line survives Invalidate")
	}
	if prior := c.Invalidate(0x40); prior != coherence.Invalid {
		t.Fatal("double Invalidate reported a state")
	}
}

func TestSetAddrs(t *testing.T) {
	c := smallCache(t, 2)
	c.Insert(0x0, coherence.Shared)
	c.Insert(0x400, coherence.Shared)
	addrs := c.SetAddrs(0x800) // same set
	if len(addrs) != 2 {
		t.Fatalf("SetAddrs = %v", addrs)
	}
	seen := map[uint64]bool{}
	for _, a := range addrs {
		seen[a] = true
	}
	if !seen[0x0] || !seen[0x400] {
		t.Fatalf("SetAddrs = %v, want {0x0, 0x400}", addrs)
	}
}

func TestClear(t *testing.T) {
	c := smallCache(t, 4)
	for i := uint64(0); i < 16; i++ {
		c.Insert(i*64, coherence.Shared)
	}
	c.Clear()
	if c.ValidLines() != 0 {
		t.Fatal("Clear left valid lines")
	}
}

// Property: the cache never holds more valid lines than its capacity, and
// a line just inserted is always present.
func TestCapacityInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew(Geometry{SizeBytes: 8 * 2 * LineSize, Ways: 2}, PolicyLRU)
		capacity := 8 * 2
		for _, a16 := range addrs {
			a := uint64(a16) * LineSize
			c.Insert(a, coherence.Shared)
			if !c.Contains(a) {
				return false
			}
			if c.ValidLines() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: evicted address reconstruction round-trips — the victim
// reported by Insert is an address that was previously inserted.
func TestEvictedAddrRoundTrip(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew(Geometry{SizeBytes: 4 * 2 * LineSize, Ways: 2}, PolicyLRU)
		inserted := map[uint64]bool{}
		for _, a16 := range addrs {
			a := uint64(a16) * LineSize
			ev, ok := c.Insert(a, coherence.Shared)
			inserted[a] = true
			if ok && !inserted[ev.Addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTreePLRUFillsInvalidFirst(t *testing.T) {
	c := MustNew(Geometry{SizeBytes: 4 * 4 * LineSize, Ways: 4}, PolicyTreePLRU)
	base := uint64(0)
	stride := uint64(4 * LineSize)
	for i := uint64(0); i < 4; i++ {
		ev, ok := c.Insert(base+i*stride, coherence.Shared)
		if ok {
			t.Fatalf("eviction %+v while invalid ways remain", ev)
		}
	}
	if c.ValidLines() != 4 {
		t.Fatal("set not full")
	}
}

func TestTreePLRUVictimIsNotMostRecent(t *testing.T) {
	c := MustNew(Geometry{SizeBytes: 4 * 4 * LineSize, Ways: 4}, PolicyTreePLRU)
	stride := uint64(4 * LineSize)
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*stride, coherence.Shared)
	}
	// Touch line 2; the next victim must not be line 2.
	c.Lookup(2 * stride)
	ev, ok := c.Insert(9*stride, coherence.Shared)
	if !ok {
		t.Fatal("no eviction from full set")
	}
	if ev.Addr == 2*stride {
		t.Fatal("tree-PLRU evicted the most recently used line")
	}
}

// TestTreePLRUFullHistory pins the tree walk exactly: touching ways in a
// known order makes the victim fully determined (not just "not the MRU").
// With 4 ways, touching 0,1,2,3 leaves every node pointing left → victim
// is way 0; then touching way 0 flips the root right → victim is way 2.
func TestTreePLRUFullHistory(t *testing.T) {
	c := MustNew(Geometry{SizeBytes: 1 * 4 * LineSize, Ways: 4}, PolicyTreePLRU)
	stride := uint64(LineSize)
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*stride, coherence.Shared) // fills ways 0..3 in order
	}
	ev, ok := c.Insert(10*stride, coherence.Shared)
	if !ok || ev.Addr != 0 {
		t.Fatalf("victim after sequential touch = %+v, want way-0 line 0", ev)
	}
	// New line sits in way 0 (just touched). Touch way 1's line: the root
	// now points right → victim is way 2's line.
	c.Lookup(1 * stride)
	ev, ok = c.Insert(11*stride, coherence.Shared)
	if !ok || ev.Addr != 2*stride {
		t.Fatalf("victim = %+v, want line 2", ev)
	}
}

func TestTreePLRURequiresPow2Ways(t *testing.T) {
	_, err := New(Geometry{SizeBytes: 3 * 64, Ways: 3}, PolicyTreePLRU)
	if err == nil {
		t.Fatal("tree-PLRU accepted 3-way geometry")
	}
	if _, err := New(Geometry{SizeBytes: 3 * 64, Ways: 3}, PolicySRRIP); err != nil {
		t.Fatalf("SRRIP rejected 3-way geometry: %v", err)
	}
}

// TestPoliciesDoNotAliasAcrossCaches is the regression test for the old
// map-backed treePLRU, which keyed per-set state off &set[0] — state
// could leak between caches sharing a policy value or across rebuilds.
// With flat per-cache arrays, driving one cache must never change
// another's eviction decisions.
func TestPoliciesDoNotAliasAcrossCaches(t *testing.T) {
	for _, pol := range []Policy{PolicyTreePLRU, PolicySRRIP, PolicyBRRIP} {
		t.Run(pol.String(), func(t *testing.T) {
			geo := Geometry{SizeBytes: 4 * 4 * LineSize, Ways: 4}
			stride := uint64(4 * LineSize)
			run := func(c *Cache, perturb *Cache) []uint64 {
				var evs []uint64
				for i := uint64(0); i < 24; i++ {
					if perturb != nil {
						// Interleave accesses on the other cache with a
						// different, shifted stream.
						perturb.Insert((i*3+1)*stride, coherence.Shared)
						perturb.Lookup((i * 3) * stride)
					}
					if ev, ok := c.Insert(i*stride, coherence.Shared); ok {
						evs = append(evs, ev.Addr)
					}
					c.Lookup((i / 2) * stride)
				}
				return evs
			}
			clean := run(MustNew(geo, pol), nil)
			noisy := run(MustNew(geo, pol), MustNew(geo, pol))
			if len(clean) != len(noisy) {
				t.Fatalf("eviction stream lengths differ: %d vs %d", len(clean), len(noisy))
			}
			for i := range clean {
				if clean[i] != noisy[i] {
					t.Fatalf("eviction %d differs (%#x vs %#x): policy state aliased across caches",
						i, clean[i], noisy[i])
				}
			}
		})
	}
}

// TestSRRIPInsertionAge pins RRIP semantics: a fill inserts at "long"
// (RRPV 2), a hit promotes to 0, and the victim scan ages everyone and
// takes the first way at "distant" from way 0.
func TestSRRIPInsertionAge(t *testing.T) {
	c := MustNew(Geometry{SizeBytes: 1 * 4 * LineSize, Ways: 4}, PolicySRRIP)
	stride := uint64(LineSize)
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*stride, coherence.Shared) // all at RRPV 2
	}
	c.Lookup(0) // way 0 promoted to RRPV 0
	// Victim: aging brings ways 1..3 to 3 first; first-from-way-0 → way 1.
	ev, ok := c.Insert(10*stride, coherence.Shared)
	if !ok || ev.Addr != 1*stride {
		t.Fatalf("SRRIP victim = %+v, want line 1", ev)
	}
	// The fresh line entered at RRPV 2; ways 2,3 are at 3. Next victim is
	// way 2 (first distant from way 0), not the new line.
	ev, ok = c.Insert(11*stride, coherence.Shared)
	if !ok || ev.Addr != 2*stride {
		t.Fatalf("second SRRIP victim = %+v, want line 2", ev)
	}
}

// TestBRRIPBimodalInsertion pins the deterministic bimodal trickle:
// fills insert at "distant" (immediately evictable) except every 32nd,
// which inserts at "long" and therefore survives the next conflict.
func TestBRRIPBimodalInsertion(t *testing.T) {
	c := MustNew(Geometry{SizeBytes: 1 * 2 * LineSize, Ways: 2}, PolicyBRRIP)
	stride := uint64(LineSize)
	var evs []uint64
	for i := uint64(0); i < 40; i++ {
		if ev, ok := c.Insert(i*stride, coherence.Shared); ok {
			evs = append(evs, ev.Addr)
		}
	}
	if len(evs) != 38 {
		t.Fatalf("got %d evictions, want 38", len(evs))
	}
	// Fill 32 inserted at "long": it must survive strictly longer than its
	// distant-inserted neighbours. Under pure distant insertion the stream
	// would evict in arrival order; the long line breaks that order.
	inOrder := true
	for i := 1; i < len(evs); i++ {
		if evs[i] < evs[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("BRRIP eviction stream is pure FIFO: bimodal long insertion never engaged")
	}
	// Determinism: the same stream replays identically (counter, not RNG).
	c2 := MustNew(Geometry{SizeBytes: 1 * 2 * LineSize, Ways: 2}, PolicyBRRIP)
	var evs2 []uint64
	for i := uint64(0); i < 40; i++ {
		if ev, ok := c2.Insert(i*stride, coherence.Shared); ok {
			evs2 = append(evs2, ev.Addr)
		}
	}
	for i := range evs {
		if evs[i] != evs2[i] {
			t.Fatal("BRRIP eviction stream not deterministic")
		}
	}
}

func TestPolicyRegistry(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
	}{
		{"", PolicyLRU},
		{"lru", PolicyLRU},
		{"LRU", PolicyLRU},
		{"tree-plru", PolicyTreePLRU},
		{"Tree-PLRU", PolicyTreePLRU},
		{"PLRU", PolicyTreePLRU},
		{"  srrip ", PolicySRRIP},
		{"brrip", PolicyBRRIP},
	}
	for _, tc := range cases {
		got, err := PolicyFor(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("PolicyFor(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := PolicyFor("clock"); err == nil {
		t.Error("PolicyFor accepted unknown policy")
	}
	names := PolicyNames()
	if len(names) != 4 || names[0] != "LRU" {
		t.Errorf("PolicyNames() = %v", names)
	}
	for _, info := range Policies() {
		if info.Policy.String() != info.Name {
			t.Errorf("String() of %v = %q, want %q", info.Policy, info.Policy.String(), info.Name)
		}
	}
}

func TestWayOf(t *testing.T) {
	c := MustNew(Geometry{SizeBytes: 1 * 4 * LineSize, Ways: 4}, PolicyLRU)
	stride := uint64(LineSize)
	for i := uint64(0); i < 3; i++ {
		c.Insert(i*stride, coherence.Shared)
	}
	before := c.Stats
	for i := uint64(0); i < 3; i++ {
		w, ok := c.WayOf(i * stride)
		if !ok || w != int(i) {
			t.Fatalf("WayOf(line %d) = %d, %v", i, w, ok)
		}
	}
	if _, ok := c.WayOf(9 * stride); ok {
		t.Fatal("WayOf hit an absent line")
	}
	if c.Stats != before {
		t.Fatal("WayOf changed stats")
	}
}

// TestSetIndexBoundaries pins the flat-array set mapping at the edges:
// the masked (power-of-two) and modulo (non-power-of-two) paths must agree
// with the reference computation for first/last sets and wrap-around, so a
// refactor of index() cannot silently remap lines.
func TestSetIndexBoundaries(t *testing.T) {
	cases := []struct {
		name string
		geo  Geometry
	}{
		{"pow2-64sets", Geometry{SizeBytes: 64 * 2 * LineSize, Ways: 2}},
		{"nonpow2-12288sets", Geometry{SizeBytes: 12 * 1024 * 1024, Ways: 16}}, // the Xeon LLC
		{"nonpow2-3sets", Geometry{SizeBytes: 3 * 1 * LineSize, Ways: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := MustNew(tc.geo, PolicyLRU)
			sets := uint64(tc.geo.Sets())
			lines := []uint64{
				0,          // first line of set 0
				sets - 1,   // last set
				sets,       // wraps to set 0
				sets + 1,   // wraps to set 1
				2*sets - 1, // last set again
				1<<32 - 1,  // far line number
				1<<40 + 7,  // beyond any physical address in the testbed
			}
			for _, n := range lines {
				addr := n * LineSize
				want := n % sets
				if got := c.SetIndexOf(addr); got != want {
					t.Errorf("SetIndexOf(line %d) = %d, want %d", n, got, want)
				}
				// Sub-line offsets map to the same set.
				if got := c.SetIndexOf(addr + LineSize - 1); got != want {
					t.Errorf("sub-line offset remapped set for line %d", n)
				}
			}
			// A full pass over every set: inserting one line per set fills
			// the cache with no conflicts in either indexing mode.
			c.Clear()
			for s := uint64(0); s < sets; s++ {
				if ev, ok := c.Insert(s*LineSize, coherence.Shared); ok {
					t.Fatalf("set %d conflicted: evicted %+v", s, ev)
				}
			}
			if got := c.ValidLines(); got != int(sets) {
				t.Fatalf("one line per set gave %d valid lines, want %d", got, sets)
			}
		})
	}
}

// TestLRUVictimPrefersInvalidWays pins the devirtualized LRU fast path:
// with a mix of valid and invalid ways, the victim must be an invalid way
// (never displacing live data), and once all ways are valid the oldest
// stamp loses regardless of insertion order.
func TestLRUVictimPrefersInvalidWays(t *testing.T) {
	c := MustNew(Geometry{SizeBytes: 1 * 4 * LineSize, Ways: 4}, PolicyLRU) // 1 set, 4 ways
	stride := uint64(LineSize)
	// Fill ways 0..3.
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*stride, coherence.Shared)
	}
	// Invalidate the middle two ways.
	c.Invalidate(1 * stride)
	c.Invalidate(2 * stride)
	// The next two inserts must reuse the invalid ways: no eviction.
	for _, n := range []uint64{10, 11} {
		if ev, ok := c.Insert(n*stride, coherence.Shared); ok {
			t.Fatalf("insert with invalid ways available evicted %+v", ev)
		}
	}
	// Set is full again; the LRU victim is the oldest surviving line (0).
	ev, ok := c.Insert(12*stride, coherence.Shared)
	if !ok || ev.Addr != 0 {
		t.Fatalf("full-set victim = %+v ok=%v, want line 0", ev, ok)
	}
}

func TestXeonGeometries(t *testing.T) {
	// The testbed's actual cache shapes must validate.
	for _, g := range []Geometry{
		{SizeBytes: 32 * 1024, Ways: 8},         // L1d
		{SizeBytes: 256 * 1024, Ways: 8},        // L2
		{SizeBytes: 12 * 1024 * 1024, Ways: 16}, // LLC
	} {
		if err := g.Validate(); err != nil {
			t.Errorf("Xeon geometry %+v invalid: %v", g, err)
		}
	}
}
