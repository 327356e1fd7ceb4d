package machine

import (
	"coherentleak/internal/sim"
)

// tlb is a per-core, fully-associative translation lookaside buffer over
// line addresses' pages. The simulator's kernel layer translates
// addresses before the machine sees them, so the TLB here models only
// the *timing* of translation: a miss charges the page-walk latency.
// The attack itself is insensitive to it (the probe line's page is
// always hot), but background workloads with large working sets pay
// realistic extra latency, and the first-touch cost shows up in traces.
type tlb struct {
	entries []tlbEntry // flat LRU array, at most size entries; nil until the first access
	clock   uint64
	size    int

	// Stats
	hits, misses uint64
}

// tlbEntry is one translation: a page number and its recency stamp.
// Stamps are unique (the clock advances every access), so the LRU victim
// is always well-defined and deterministic.
type tlbEntry struct {
	page, stamp uint64
}

// access touches the TLB for addr and reports whether it missed. The
// entries are allocated on the first access: most of a machine's cores
// never touch memory, so construction allocates no entries.
func (t *tlb) access(addr uint64) bool {
	if t.entries == nil {
		t.entries = make([]tlbEntry, 0, t.size)
	}
	page := addr >> 12
	t.clock++
	for i := range t.entries {
		if t.entries[i].page == page {
			t.entries[i].stamp = t.clock
			// Move-to-front so the hot probe page is found on the first
			// comparison next time; eviction order depends only on
			// stamps, so this changes nothing observable.
			t.entries[0], t.entries[i] = t.entries[i], t.entries[0]
			t.hits++
			return false
		}
	}
	t.misses++
	if len(t.entries) >= t.size {
		// Evict the least recently used entry.
		victim := 0
		for i := 1; i < len(t.entries); i++ {
			if t.entries[i].stamp < t.entries[victim].stamp {
				victim = i
			}
		}
		t.entries[victim] = tlbEntry{page: page, stamp: t.clock}
		return true
	}
	t.entries = append(t.entries, tlbEntry{page: page, stamp: t.clock})
	return true
}

// tlbPenalty charges the page walk for a memory operation by core g and
// returns the extra cycles.
func (m *Machine) tlbPenalty(g int, addr uint64) sim.Cycles {
	if m.cfg.Latencies.PageWalk == 0 || m.cfg.TLBEntries == 0 {
		return 0
	}
	if m.tlbs[g].access(addr) {
		return m.cfg.Latencies.PageWalk
	}
	return 0
}

// TLBStats returns (hits, misses) for core g's TLB.
func (m *Machine) TLBStats(g int) (uint64, uint64) {
	t := &m.tlbs[g]
	return t.hits, t.misses
}
