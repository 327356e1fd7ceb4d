package store

import "sync"

// Memory is the in-process cell store: a map with optional LRU
// bounding. It lives only as long as its process; restart persistence
// is Disk's job. Safe for concurrent use by the Runner's workers and
// for sharing across daemon jobs.
type Memory struct {
	statsCounter

	mu      sync.Mutex
	entries map[string]*Entry
	// limit bounds the entry count; 0 means unbounded. When a Store
	// would exceed it, the least-recently-used entry is evicted.
	limit int
	// clock is a logical recency counter; lastUse[key] holds the tick of
	// the key's last hit or store.
	clock   uint64
	lastUse map[string]uint64
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{
		entries: make(map[string]*Entry),
		lastUse: make(map[string]uint64),
	}
}

// SetLimit bounds the cache to at most n entries (0 restores unbounded
// growth). If the store already holds more, the least-recently-used
// entries are pruned immediately.
func (m *Memory) SetLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.limit = n
	m.pruneLocked()
}

// pruneLocked evicts least-recently-used entries until the limit holds.
// Eviction scans for the minimum recency tick — O(n) per eviction, but
// evictions are rare (one per Store once the cache is full) and n is
// the cache bound itself. Ties break on the smaller key so eviction
// order is deterministic.
func (m *Memory) pruneLocked() {
	if m.limit <= 0 {
		return
	}
	for len(m.entries) > m.limit {
		var victim string
		var oldest uint64
		first := true
		for k := range m.entries {
			use := m.lastUse[k]
			if first || use < oldest || (use == oldest && k < victim) {
				victim, oldest, first = k, use, false
			}
		}
		delete(m.entries, victim)
		delete(m.lastUse, victim)
	}
}

// Lookup returns the cached entry for key if its input digest matches.
func (m *Memory) Lookup(key, digest string) (*Entry, bool) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok || e.Digest != digest {
		m.mu.Unlock()
		m.miss()
		return nil, false
	}
	m.clock++
	m.lastUse[key] = m.clock
	m.mu.Unlock()
	m.hit()
	return e, true
}

// Store records a cell's output, replacing any stale entry. When a
// limit is set and the cache is full, the least-recently-used entry is
// evicted to make room.
func (m *Memory) Store(key string, e *Entry) {
	m.mu.Lock()
	m.entries[key] = e
	m.clock++
	m.lastUse[key] = m.clock
	m.pruneLocked()
	m.mu.Unlock()
	m.write()
}

// Len reports the number of cached cells.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
