// Package cache implements the set-associative write-back caches of the
// simulated memory hierarchy: private L1/L2 caches per core and the shared
// last-level cache per socket. Lines carry coherence states from the
// coherence package; the machine package wires caches, directory and
// interconnect together.
package cache

import (
	"fmt"
	"math"
	"slices"

	"coherentleak/internal/coherence"
)

// LineSize is the cache line size in bytes, matching the Xeon X5650.
const LineSize = 64

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// Geometry describes a cache's shape.
type Geometry struct {
	// SizeBytes is the total capacity. Must be Ways*Sets*LineSize.
	SizeBytes int
	// Ways is the associativity.
	Ways int
}

// Sets returns the number of sets implied by the geometry.
func (g Geometry) Sets() int { return g.SizeBytes / (g.Ways * LineSize) }

// Validate checks the geometry for internal consistency.
func (g Geometry) Validate() error {
	if g.SizeBytes <= 0 || g.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", g)
	}
	if g.SizeBytes%(g.Ways*LineSize) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*linesize", g.SizeBytes)
	}
	if g.Sets() == 0 {
		return fmt.Errorf("cache: zero sets for %+v", g)
	}
	return nil
}

// Line is one cache line's metadata. Data contents are not stored here;
// the simulator tracks contents at the physical-frame level (package mem),
// because the attack depends only on timing, not on data flow through the
// hierarchy. A Line is 16 bytes, so a 16-way set spans four host cache
// lines.
type Line struct {
	Tag   uint64
	State coherence.State
	// rrpv is the 2-bit re-reference prediction value (PolicySRRIP and
	// PolicyBRRIP only); it fits in State's padding.
	rrpv uint8
	// clean is a shared cache's LLC-valid mark: the line is a clean,
	// current copy that can service misses (§VI-A keeps this at the LLC).
	// Only InsertClean sets it; a fresh fill, eviction or invalidation
	// drops it, and ClearClean drops it when the copy goes stale. It too
	// fits in the padding.
	clean bool
	// lru is the recency stamp used by the LRU policy: the cache clock
	// at the line's last touch. Only the order of the stamps within a
	// set matters, which is what lets them be 32 bits wide (see tick).
	lru uint32
}

// Valid reports whether the line holds usable data.
func (l *Line) Valid() bool { return l.State.Valid() }

// Cache is a single set-associative cache array. A set's ways are one
// contiguous run of Lines, so a set probe walks one run of memory, but a
// set gets its run only on its first fill: the harness builds many
// short-lived machines (one per calibration band, per covert session)
// that touch a handful of sets, and eagerly zeroing a multi-megabyte LLC
// array, or even a table of per-set slice headers, for each of them
// dominated construction cost.
//
// The store is pointer-free per set. slot maps a set to its position in
// first-fill order, and the positions are packed blockSets sets to a
// block; blocks are appended as sets fill and never reallocated, so a
// *Line from Lookup stays valid for the cache's lifetime. slot itself
// is paged, slotPageSets sets to a page, and a page is allocated on the
// first fill of any of its sets: construction costs one slice header
// per page, and a set lookup one extra load.
//
// Replacement metadata is filled in with the set, never kept in maps
// keyed by set identity: policy state is part of the cache, cannot alias
// across caches, and costs no per-access allocation. LRU recency stamps
// and RRIP prediction values live on the Lines; tree-PLRU's per-set bits
// live in a slice indexed by store position. The default LRU policy
// keeps its devirtualized fast path (lruVictim); tree-PLRU and the RRIP
// family are dispatched by a small enum switch.
type Cache struct {
	geo Geometry
	// slot[s>>slotPageShift][s&slotPageMask] is 1 + set s's position in
	// the store, or 0 until the first fill touches set s. A page is nil
	// until then too, and otherwise sized to the sets it covers.
	slot [][]uint32
	// blocks[b] holds the ways of positions [b*blockSets, (b+1)*blockSets),
	// position-major. used counts the positions handed out.
	blocks  [][]Line
	used    uint32
	ways    int
	policy  Policy
	clock   uint32 // recency counter for LRU stamps
	numSets uint64
	setMask uint64 // numSets-1 when numSets is a power of two
	pow2    bool

	// plruBits[p] is the tree-PLRU node-bit word of the set at store
	// position p (PolicyTreePLRU only; nil otherwise). Bit k is internal
	// node k of the binary decision tree over the set's ways; set =
	// victim search goes right.
	plruBits []uint64
	// brripFills counts fills for BRRIP's deterministic bimodal
	// insertion (every brripLongEvery-th fill inserts at "long").
	brripFills uint64

	// Stats accumulates hit/miss/eviction counts.
	Stats Stats
}

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Fills     uint64
	Flushes   uint64
}

// New returns a cache with the given geometry and replacement policy
// (the Policy zero value is LRU, the historical default).
func New(geo Geometry, policy Policy) (*Cache, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := policy.CheckGeometry(geo); err != nil {
		return nil, err
	}
	sets := geo.Sets()
	c := &Cache{
		geo:     geo,
		slot:    make([][]uint32, (sets+slotPageSets-1)/slotPageSets),
		ways:    geo.Ways,
		policy:  policy,
		numSets: uint64(sets),
	}
	if c.numSets&(c.numSets-1) == 0 {
		c.pow2 = true
		c.setMask = c.numSets - 1
	}
	return c, nil
}

// MustNew is New but panics on configuration error; for static configs.
func MustNew(geo Geometry, policy Policy) *Cache {
	c, err := New(geo, policy)
	if err != nil {
		panic(err)
	}
	return c
}

// Geometry returns the cache's shape.
func (c *Cache) Geometry() Geometry { return c.geo }

// Policy returns the replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// plru returns the tree-PLRU bits of set s, which must have been filled.
func (c *Cache) plru(s uint64) *uint64 {
	return &c.plruBits[c.slot[s>>slotPageShift][s&slotPageMask]-1]
}

// touchSlow updates non-LRU replacement metadata after a hit or re-fill
// of way w of set s. The LRU fast path (recency stamp) is inlined at the
// call sites; this runs only for the enum policies.
func (c *Cache) touchSlow(s uint64, ways []Line, w int) {
	switch c.policy {
	case PolicyTreePLRU:
		b := c.plru(s)
		*b = plruTouch(*b, c.ways, w)
	default: // PolicySRRIP, PolicyBRRIP: a hit predicts near re-reference.
		ways[w].rrpv = 0
	}
}

// victimSlow selects a victim way for the enum policies. Invalid ways
// are always preferred, scanning from way 0, matching lruVictim; so an
// invalid way's stale RRIP value is never read.
func (c *Cache) victimSlow(s uint64, ways []Line) int {
	for i := range ways {
		if !ways[i].Valid() {
			return i
		}
	}
	if c.policy == PolicyTreePLRU {
		return plruVictim(*c.plru(s), c.ways)
	}
	// RRIP: the victim is the first way (from way 0) at "distant";
	// if none, age every way until one reaches it.
	for {
		for i := range ways {
			if ways[i].rrpv >= maxRRPV {
				return i
			}
		}
		for i := range ways {
			ways[i].rrpv++
		}
	}
}

// fillMeta sets the replacement metadata for a newly filled way.
func (c *Cache) fillMeta(s uint64, ways []Line, w int) {
	switch c.policy {
	case PolicyTreePLRU:
		b := c.plru(s)
		*b = plruTouch(*b, c.ways, w)
	default: // PolicySRRIP, PolicyBRRIP
		ins := uint8(srripInsertRRPV)
		if c.policy == PolicyBRRIP {
			c.brripFills++
			if c.brripFills%brripLongEvery != 0 {
				ins = maxRRPV
			}
		}
		ways[w].rrpv = ins
	}
}

// index maps a line address to (set, tag). The tag is the full line
// number, which keeps reconstruction trivial and supports set counts that
// are not powers of two (the 12288-set Xeon LLC).
func (c *Cache) index(line uint64) (set uint64, tag uint64) {
	n := line / LineSize
	if c.pow2 {
		return n & c.setMask, n
	}
	return n % c.numSets, n
}

// blockSets is the number of sets per store block: large enough that a
// block costs one allocation per many fills, small enough that a machine
// touching a few sets allocates little.
const blockSets = 32

// slotPageShift sets the slot page size: slotPageSets sets, 4 KiB of
// positions, so the 12288-set LLC has 12 pages and a private cache one.
const (
	slotPageShift = 10
	slotPageSets  = 1 << slotPageShift
	slotPageMask  = slotPageSets - 1
)

// set returns the ways of set s, or nil when the set was never filled.
func (c *Cache) set(s uint64) []Line {
	pg, i := c.slot[s>>slotPageShift], s&slotPageMask
	if i < uint64(len(pg)) && pg[i] != 0 { // a nil page has length 0
		return c.at(pg[i] - 1)
	}
	return nil
}

// at returns the ways stored at position p.
func (c *Cache) at(p uint32) []Line {
	off := int(p%blockSets) * c.ways
	return c.blocks[p/blockSets][off : off+c.ways : off+c.ways]
}

// setMake returns the ways of set s, giving it the next position on
// first use, allocating its slot page on the page's first fill, and
// appending a block when the last one is full. A cache with fewer than
// blockSets unfilled sets left gets a block sized to them.
func (c *Cache) setMake(s uint64) []Line {
	pg := c.slot[s>>slotPageShift]
	if pg == nil {
		pg = make([]uint32, min(slotPageSets, c.numSets-s&^slotPageMask))
		c.slot[s>>slotPageShift] = pg
	}
	i := s & slotPageMask
	if p := pg[i]; p != 0 {
		return c.at(p - 1)
	}
	p := c.used
	if int(p/blockSets) == len(c.blocks) {
		n := min(blockSets, c.numSets-uint64(p))
		c.blocks = append(c.blocks, make([]Line, n*uint64(c.ways)))
	}
	if c.policy == PolicyTreePLRU {
		c.plruBits = append(c.plruBits, 0)
	}
	c.used++
	pg[i] = p + 1
	return c.at(p)
}

// Probe returns the line's state without updating recency, or Invalid if
// absent. It is the side-effect-free observer used by tests and defenses.
func (c *Cache) Probe(addr uint64) coherence.State {
	set, tag := c.index(LineAddr(addr))
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.Valid() && l.Tag == tag {
			return l.State
		}
	}
	return coherence.Invalid
}

// Contains reports whether addr's line is present and valid.
func (c *Cache) Contains(addr uint64) bool { return c.Probe(addr).Valid() }

// Lookup finds addr's line, updating recency and hit/miss stats. It
// returns the line for in-place state manipulation, or nil on miss.
func (c *Cache) Lookup(addr uint64) *Line {
	set, tag := c.index(LineAddr(addr))
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.Valid() && l.Tag == tag {
			l.lru = c.tick()
			if c.policy != PolicyLRU {
				c.touchSlow(set, ways, i)
			}
			c.Stats.Hits++
			return l
		}
	}
	c.Stats.Misses++
	return nil
}

// tick advances the cache clock and returns the new stamp. Before the
// clock would pass MaxUint32 it renumbers every set's stamps to their
// rank within the set, which keeps each set's recency order — and with
// it every LRU victim — exactly as it was.
func (c *Cache) tick() uint32 {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber rewrites the stamps of each set's valid lines to their rank
// in the set's recency order (1 for the least recent) and restarts the
// clock above every rank. Stamps within a set are distinct, as every
// touch takes a fresh tick, so ranks reproduce the order exactly.
// Invalid ways keep stamp 0: victim selection never reads it.
func (c *Cache) renumber() {
	rank := make([]uint32, c.ways)
	c.clock = 0
	for _, b := range c.blocks {
		for off := 0; off < len(b); off += c.ways {
			ways := b[off : off+c.ways]
			for i := range ways {
				rank[i] = 0
				if ways[i].Valid() {
					for j := range ways {
						if ways[j].Valid() && ways[j].lru <= ways[i].lru {
							rank[i]++
						}
					}
				}
			}
			for i := range ways {
				ways[i].lru = rank[i]
				c.clock = max(c.clock, rank[i])
			}
		}
	}
}

// Evicted describes a line displaced by Insert.
type Evicted struct {
	Addr  uint64
	State coherence.State
}

// Insert fills addr's line in state, evicting a victim if the set is
// full. It returns the evicted line's identity so the caller can run the
// coherence eviction transaction (write-back, directory update,
// back-invalidation for inclusive caches). ok is false when nothing valid
// was displaced. A re-fill of a present line just updates its state and
// keeps its clean mark.
func (c *Cache) Insert(addr uint64, state coherence.State) (ev Evicted, ok bool) {
	return c.insert(addr, state, true, false)
}

// InsertAbsent is Insert for callers that have already proven the line is
// not present (a preceding Lookup or Probe missed): it skips the re-fill
// scan and goes straight to victim selection. Behavior is otherwise
// identical to Insert; calling it with a present line would duplicate the
// tag within the set, so the proof is the caller's obligation.
func (c *Cache) InsertAbsent(addr uint64, state coherence.State) (ev Evicted, ok bool) {
	return c.insert(addr, state, false, false)
}

// InsertClean is Insert that also sets the line's clean mark, in the
// same scan of the set: the shared level's fill of a clean, current copy.
func (c *Cache) InsertClean(addr uint64, state coherence.State) (ev Evicted, ok bool) {
	return c.insert(addr, state, true, true)
}

// insert implements the three Inserts: refill scans for a present line
// first, and clean sets the filled line's mark.
func (c *Cache) insert(addr uint64, state coherence.State, refill, clean bool) (ev Evicted, ok bool) {
	if !state.Valid() {
		panic("cache: Insert with Invalid state")
	}
	line := LineAddr(addr)
	set, tag := c.index(line)
	ways := c.setMake(set)

	if refill {
		for i := range ways {
			l := &ways[i]
			if l.Valid() && l.Tag == tag {
				l.State = state
				l.clean = l.clean || clean
				l.lru = c.tick()
				if c.policy != PolicyLRU {
					c.touchSlow(set, ways, i)
				}
				return Evicted{}, false
			}
		}
	}

	var w int
	if c.policy == PolicyLRU {
		w = lruVictim(ways)
	} else {
		w = c.victimSlow(set, ways)
	}
	victim := &ways[w]
	if victim.Valid() {
		ev = Evicted{Addr: c.addrOf(set, victim.Tag), State: victim.State}
		ok = true
		c.Stats.Evictions++
	}
	*victim = Line{Tag: tag, State: state, clean: clean, lru: c.tick()}
	if c.policy != PolicyLRU {
		c.fillMeta(set, ways, w)
	}
	c.Stats.Fills++
	return ev, ok
}

// addrOf reconstructs a line address from its tag (the full line number).
func (c *Cache) addrOf(set, tag uint64) uint64 {
	_ = set
	return tag * LineSize
}

// SetState changes the state of a present line; it reports whether the
// line was present. SetState(addr, Invalid) invalidates without write-back
// bookkeeping — callers decide what to do with dirty data first (Probe).
func (c *Cache) SetState(addr uint64, state coherence.State) bool {
	set, tag := c.index(LineAddr(addr))
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.Valid() && l.Tag == tag {
			if state == coherence.Invalid {
				*l = Line{}
				c.Stats.Flushes++
			} else {
				l.State = state
			}
			return true
		}
	}
	return false
}

// Invalidate removes addr's line, returning its prior state.
func (c *Cache) Invalidate(addr uint64) coherence.State {
	set, tag := c.index(LineAddr(addr))
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.Valid() && l.Tag == tag {
			prior := l.State
			*l = Line{}
			c.Stats.Flushes++
			return prior
		}
	}
	return coherence.Invalid
}

// SetAddrs returns every distinct line address that maps to the same set
// as addr, among the currently valid lines. Used by eviction-based
// flushing (the paper's "eviction of all the ways in the set" [12]).
func (c *Cache) SetAddrs(addr uint64) []uint64 {
	set, _ := c.index(LineAddr(addr))
	ways := c.set(set)
	var out []uint64
	for i := range ways {
		l := &ways[i]
		if l.Valid() {
			out = append(out, c.addrOf(set, l.Tag))
		}
	}
	return out
}

// ValidLines returns the number of valid lines across all sets.
func (c *Cache) ValidLines() int {
	n := 0
	for _, b := range c.blocks {
		for i := range b {
			if b[i].Valid() {
				n++
			}
		}
	}
	return n
}

// ForEachValid calls fn for every valid line in deterministic set-major
// way order, with the line's address and coherence state. It is the
// snapshot primitive behind the differential-test state digest.
func (c *Cache) ForEachValid(fn func(addr uint64, st coherence.State)) {
	for pi, pg := range c.slot {
		for i, p := range pg {
			if p == 0 {
				continue
			}
			s := uint64(pi)<<slotPageShift | uint64(i)
			ways := c.at(p - 1)
			for w := range ways {
				l := &ways[w]
				if l.Valid() {
					fn(c.addrOf(s, l.Tag), l.State)
				}
			}
		}
	}
}

// Clear invalidates the whole cache (test helper / machine reset),
// including all replacement metadata. The slot pages and blocks are
// kept, and the blocks refilled in the new first-fill order.
func (c *Cache) Clear() {
	for _, pg := range c.slot {
		clear(pg)
	}
	for _, b := range c.blocks {
		clear(b)
	}
	c.used = 0
	c.plruBits = c.plruBits[:0]
	c.brripFills = 0
}

// Clean reports whether addr's line is present with its clean mark.
func (c *Cache) Clean(addr uint64) bool {
	l := c.find(addr)
	return l != nil && l.clean
}

// ClearClean drops addr's clean mark (the copy went stale). An absent
// line is left alone.
func (c *Cache) ClearClean(addr uint64) {
	if l := c.find(addr); l != nil {
		l.clean = false
	}
}

// find returns addr's way, or nil when the line is absent, without
// touching recency or stats.
func (c *Cache) find(addr uint64) *Line {
	set, tag := c.index(LineAddr(addr))
	ways := c.set(set)
	for i := range ways {
		if l := &ways[i]; l.Valid() && l.Tag == tag {
			return l
		}
	}
	return nil
}

// CleanLines returns the address of every line with its clean mark, in
// ascending order.
func (c *Cache) CleanLines() []uint64 {
	var out []uint64
	for _, b := range c.blocks {
		for i := range b {
			if b[i].Valid() && b[i].clean {
				out = append(out, b[i].Tag*LineSize)
			}
		}
	}
	slices.Sort(out)
	return out
}

// SetIndexOf exposes the set index for addr (for conflict-set workload
// construction in tests and the noise generator).
func (c *Cache) SetIndexOf(addr uint64) uint64 {
	set, _ := c.index(LineAddr(addr))
	return set
}

// SetLines calls fn, in ascending order, with the address of each line
// in [lo, hi) that maps to set s (lo is rounded down to its line), until
// fn returns false. Like SetIndexOf it serves conflict-set construction,
// but it visits only the matching lines: a set is the line number modulo
// the set count, so consecutive lines of one set lie Sets()*LineSize
// bytes apart.
func (c *Cache) SetLines(lo, hi, s uint64, fn func(addr uint64) bool) {
	lo = LineAddr(lo)
	first := (s + c.numSets - c.SetIndexOf(lo)) % c.numSets
	for a := lo + first*LineSize; a < hi; a += c.numSets * LineSize {
		if !fn(a) {
			return
		}
	}
}

// WayOf returns the way index currently holding addr's line, without
// touching recency or stats. Like SetIndexOf, this is a ground-truth
// accessor for conflict-set construction: the simulator exposes its
// known placement directly, where on real hardware an attacker would
// recover way occupancy with timing-based group testing.
func (c *Cache) WayOf(addr uint64) (int, bool) {
	set, tag := c.index(LineAddr(addr))
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.Valid() && l.Tag == tag {
			return i, true
		}
	}
	return 0, false
}
