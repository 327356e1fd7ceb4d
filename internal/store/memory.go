package store

import "sync"

// Memory is the in-process cell store: a map with optional LRU
// bounding. It lives only as long as its process; restart persistence
// is Disk's job. Safe for concurrent use by the Runner's workers and
// for sharing across daemon jobs.
type Memory struct {
	statsCounter

	mu      sync.Mutex
	entries map[string]*memNode
	// limit bounds the entry count; 0 means unbounded. When a Store
	// would exceed it, the least-recently-used entry is evicted.
	limit int
	// recent is the sentinel of a circular list of every node, most
	// recently hit or stored first, so the eviction victim is
	// recent.prev and a touch is O(1).
	recent memNode
}

// memNode is one cached entry on Memory's recency list.
type memNode struct {
	key        string
	entry      *Entry
	prev, next *memNode
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	m := &Memory{entries: make(map[string]*memNode)}
	m.recent.prev, m.recent.next = &m.recent, &m.recent
	return m
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
func (m *Memory) pruneLocked() {
	if m.limit <= 0 {
		return
	}
	for len(m.entries) > m.limit {
		victim := m.recent.prev
		victim.unlink()
		delete(m.entries, victim.key)
	}
}

// touchLocked moves n to the front of the recency list.
func (m *Memory) touchLocked(n *memNode) {
	if n.next != nil {
		n.unlink()
	}
	n.prev, n.next = &m.recent, m.recent.next
	n.next.prev = n
	m.recent.next = n
}

func (n *memNode) unlink() {
	n.prev.next, n.next.prev = n.next, n.prev
}

// Lookup returns the cached entry for key if its input digest matches.
func (m *Memory) Lookup(key, digest string) (*Entry, bool) {
	m.mu.Lock()
	n, ok := m.entries[key]
	if !ok || n.entry.Digest != digest {
		m.mu.Unlock()
		m.miss()
		return nil, false
	}
	m.touchLocked(n)
	m.mu.Unlock()
	m.hit()
	return n.entry, true
}

// Store records a cell's output, replacing any stale entry. When a
// limit is set and the cache is full, the least-recently-used entry is
// evicted to make room.
func (m *Memory) Store(key string, e *Entry) {
	m.mu.Lock()
	n, ok := m.entries[key]
	if !ok {
		n = &memNode{key: key}
		m.entries[key] = n
	}
	n.entry = e
	m.touchLocked(n)
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
