package machine

import "sort"

// lineTable is the machine's one record per cache line. A record holds,
// for every socket, the core-valid bit vector the paper places at the LLC
// (§VI-A) and whether that socket's LLC holds a clean copy that can
// service misses, plus the line's lineMeta bookkeeping.
//
// A socket's entry is live iff its sharer mask is non-zero or its LLC
// copy is marked valid. A record exists while any socket's entry is live
// or the line has meta; meta is never removed.
//
// The storage is an open-addressing table of 16-byte slots (no pointers,
// no per-record allocation) with the sharer masks in a parallel slice and
// the meta records in an append-only slab. Deletion leaves tombstones
// that the next growth rehash reclaims. A move-to-front lookaside keyed
// by line remembers both present and absent lines: one coherence
// transaction asks about its line many times (local census, remote
// census, snoop and fill decisions, the jitter lookup) interleaved with
// its eviction victims, and most of those lines have no record at all.
//
// Pointer validity: a *lineMeta stays valid until the next metaMake,
// the only call that appends to the slab. Creating or deleting records
// and growing the table move slots, never meta.
type lineTable struct {
	sockets int

	// slots is the table; mask = len(slots)-1 (a power of two). used
	// counts records, tombs tombstones; the table is rehashed when
	// used+tombs would exceed 3/4 of it.
	slots []lineSlot
	mask  uint64
	used  int
	tombs int
	// sharers[i*sockets+s] is slot i's core-valid vector for socket s
	// (see masks).
	sharers []uint64
	// metas is the meta slab; slot.meta indexes it (plus one).
	metas []lineMeta

	// look is the lookaside, most recent first. Entries are updated when
	// a record is created or deleted and re-resolved after a rehash. The
	// zero lookaside is valid: it says line 0 has no record, which holds
	// for the empty table.
	look [lookN]lookEntry
}

// lookN is the lookaside depth: a miss transaction touches the missing
// line, an L2-eviction victim, an LLC-eviction victim and, with the
// prefetcher on, the next line, so four entries keep the primary line
// resident across the interleaved victim handling.
const lookN = 4

type lookEntry struct {
	line uint64
	slot int // 1 + the line's slot; 0: the line has no record
}

const (
	slotEmpty uint8 = iota
	slotUsed
	slotTomb
)

// lineSlot is one table slot.
type lineSlot struct {
	line uint64
	// meta is 1 + the line's index in metas, or 0 without meta.
	meta uint32
	// llc has bit s set when socket s's LLC holds a clean copy; 16 bits
	// bound Config.Sockets.
	llc   uint16
	state uint8
}

// maxSockets is the socket count lineSlot.llc can describe.
const maxSockets = 16

// lineHash spreads line addresses (low 6 bits always zero) over the
// table with a Fibonacci multiplicative hash. The multiply concentrates
// entropy in the high bits, and the table indexes with low bits, so the
// high half is folded down — without the fold, sequential lines form
// arithmetic probe chains and linear probing degenerates.
func lineHash(line uint64) uint64 {
	h := line * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// find returns line's slot, or -1 when the line has no record,
// consulting the lookaside before the table.
func (t *lineTable) find(line uint64) int {
	if t.look[0].line == line {
		return t.look[0].slot - 1
	}
	for i := 1; i < lookN; i++ {
		if e := t.look[i]; e.line == line {
			copy(t.look[1:i+1], t.look[:i])
			t.look[0] = e
			return e.slot - 1
		}
	}
	i := t.probe(line)
	copy(t.look[1:], t.look[:lookN-1])
	t.look[0] = lookEntry{line: line, slot: i + 1}
	return i
}

// probe walks line's chain in the table.
func (t *lineTable) probe(line uint64) int {
	if t.used == 0 {
		return -1
	}
	for h := lineHash(line); ; h++ {
		i := int(h & t.mask)
		switch s := &t.slots[i]; {
		case s.state == slotEmpty:
			return -1
		case s.state == slotUsed && s.line == line:
			return i
		}
	}
}

// lookSet records that line now lives in slot (-1: deleted).
func (t *lineTable) lookSet(line uint64, slot int) {
	for i := range t.look {
		if t.look[i].line == line {
			t.look[i].slot = slot + 1
		}
	}
}

// findOrAdd returns line's slot, creating an empty record if needed.
func (t *lineTable) findOrAdd(line uint64) int {
	if i := t.find(line); i >= 0 {
		return i
	}
	if len(t.slots) == 0 || (t.used+t.tombs+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	h := lineHash(line)
	for t.slots[h&t.mask].state == slotUsed {
		h++
	}
	i := int(h & t.mask)
	if t.slots[i].state == slotTomb {
		t.tombs--
	}
	t.slots[i] = lineSlot{line: line, state: slotUsed}
	clear(t.masks(i))
	t.used++
	t.lookSet(line, i)
	return i
}

// grow rehashes the table, shedding tombstones. Capacity doubles only
// when records fill more than 3/8 of it; otherwise the rehash keeps the
// size and merely reclaims tombstones — without this, workloads that
// constantly add and drop records (streaming evictions) would trigger
// doubling on tombstone pressure alone and balloon the table.
func (t *lineTable) grow() {
	n := len(t.slots) * 2
	if t.used*8 <= len(t.slots)*3 {
		n = len(t.slots)
	}
	if n < 64 {
		n = 64
	}
	old, oldSharers := t.slots, t.sharers
	t.slots = make([]lineSlot, n)
	t.sharers = make([]uint64, n*t.sockets)
	t.mask = uint64(n - 1)
	t.tombs = 0
	for i := range old {
		if old[i].state != slotUsed {
			continue
		}
		h := lineHash(old[i].line)
		for t.slots[h&t.mask].state != slotEmpty {
			h++
		}
		j := int(h & t.mask)
		t.slots[j] = old[i]
		copy(t.masks(j), oldSharers[i*t.sockets:(i+1)*t.sockets])
	}
	for i := range t.look {
		if t.look[i].slot > 0 {
			t.look[i].slot = t.probe(t.look[i].line) + 1
		}
	}
}

// reclaim deletes slot i's record once no socket entry is live and the
// line has no meta.
func (t *lineTable) reclaim(i int) {
	s := &t.slots[i]
	if s.llc != 0 || s.meta != 0 {
		return
	}
	for _, v := range t.masks(i) {
		if v != 0 {
			return
		}
	}
	s.state = slotTomb
	t.used--
	t.tombs++
	t.lookSet(s.line, -1)
}

// masks returns slot i's core-valid vectors, one per socket.
func (t *lineTable) masks(i int) []uint64 {
	return t.sharers[i*t.sockets : (i+1)*t.sockets]
}

// sharerMask returns socket s's core-valid vector for line (zero without a
// record). Callers walk it with bits.TrailingZeros64.
func (t *lineTable) sharerMask(line uint64, s int) uint64 {
	if i := t.find(line); i >= 0 {
		return t.masks(i)[s]
	}
	return 0
}

// llcValid reports whether socket s's LLC holds a clean copy of line.
func (t *lineTable) llcValid(line uint64, s int) bool {
	i := t.find(line)
	return i >= 0 && t.slots[i].llc&(1<<s) != 0
}

// live reports whether socket s has an entry for line: a sharer or a
// clean LLC copy.
func (t *lineTable) live(line uint64, s int) bool {
	return t.sharerMask(line, s) != 0 || t.llcValid(line, s)
}

// addSharer records that core local of socket s now holds line.
func (t *lineTable) addSharer(line uint64, s, local int) {
	i := t.findOrAdd(line)
	t.masks(i)[s] |= 1 << local
}

// removeSharer records that core local of socket s no longer holds line
// (eviction or invalidation of the private copy).
func (t *lineTable) removeSharer(line uint64, s, local int) {
	if i := t.find(line); i >= 0 {
		t.masks(i)[s] &^= 1 << local
		t.reclaim(i)
	}
}

// markLLC records that socket s's LLC holds a clean, current copy of
// line (after a write-back or a fill).
func (t *lineTable) markLLC(line uint64, s int) {
	i := t.findOrAdd(line)
	t.slots[i].llc |= 1 << s
}

// invalidateLLC drops socket s's clean-copy mark (LLC eviction of the
// line, or a store making the LLC copy stale).
func (t *lineTable) invalidateLLC(line uint64, s int) {
	if i := t.find(line); i >= 0 {
		t.slots[i].llc &^= 1 << s
		t.reclaim(i)
	}
}

// clearLine removes every socket's entry for line (clflush).
func (t *lineTable) clearLine(line uint64) {
	if i := t.find(line); i >= 0 {
		t.slots[i].llc = 0
		clear(t.masks(i))
		t.reclaim(i)
	}
}

// meta returns line's bookkeeping record, or nil when it has none.
func (t *lineTable) meta(line uint64) *lineMeta {
	if i := t.find(line); i >= 0 && t.slots[i].meta != 0 {
		return &t.metas[t.slots[i].meta-1]
	}
	return nil
}

// metaMake returns line's bookkeeping record, creating it if needed.
// Creation can move the slab, which invalidates previously returned
// *lineMeta pointers.
func (t *lineTable) metaMake(line uint64) *lineMeta {
	i := t.findOrAdd(line)
	if t.slots[i].meta == 0 {
		t.metas = append(t.metas, lineMeta{})
		t.slots[i].meta = uint32(len(t.metas))
	}
	return &t.metas[t.slots[i].meta-1]
}

// sortedLines returns the line of every record in ascending order — a
// deterministic snapshot for state digests.
func (t *lineTable) sortedLines() []uint64 {
	lines := make([]uint64, 0, t.used)
	for i := range t.slots {
		if t.slots[i].state == slotUsed {
			lines = append(lines, t.slots[i].line)
		}
	}
	sort.Slice(lines, func(a, b int) bool { return lines[a] < lines[b] })
	return lines
}
