// Package store is the content-addressed cell-output store behind the
// harness cell cache. Every cached entry is keyed by the full input
// digest of the cell that produced it — config digest, seed, sizing,
// artifact and cell identity — so a key names exactly one possible
// output and a hit can be replayed verbatim without re-validating
// anything beyond the digest.
//
// Two implementations ship: Memory, an in-process LRU map that lives
// as long as its process, and Disk, the one persistent format — a
// crash-safe one-file-per-entry store that any number of cohsimd
// replicas and experiments runs can point at the same directory to
// share hits. Disk writes each entry as it is stored, so persistence
// costs one small file per cell rather than a rewrite of the whole
// cache, and a killed process keeps every cell it finished.
package store

import "sync"

// Entry is one cached cell output. Entries are immutable once stored:
// implementations and callers share pointers freely.
type Entry struct {
	// Digest hashes the inputs that produced the entry (config digest,
	// seed, sizing, artifact, cell). A lookup only hits when it matches.
	Digest string `json:"digest"`
	// Rows and Summary replay the cell's output verbatim.
	Rows    []string `json:"rows"`
	Summary []string `json:"summary,omitempty"`
	// WallMillis is the original execution time, reported on hits so a
	// cached run can say how much work it skipped.
	WallMillis float64 `json:"wallMillis"`
}

// CellStore is the content-addressed cache consulted before any cell is
// executed or dispatched. Implementations must be safe for concurrent
// use: the Runner's workers and every daemon job share one store.
type CellStore interface {
	// Lookup returns the cached entry for key if its input digest
	// matches. A mismatch, a missing entry, or an unreadable/corrupt
	// entry all report a miss.
	Lookup(key, digest string) (*Entry, bool)
	// Store records a cell's output, replacing any stale entry. Stores
	// are best-effort: an implementation that cannot persist the entry
	// drops it silently (the cell simply re-executes next time).
	Store(key string, e *Entry)
	// Len reports the number of cached cells currently visible.
	Len() int
}

// Stats counts one store's traffic since construction. Implementations
// embed statsCounter to provide them.
type Stats struct {
	Hits   uint64
	Misses uint64
	Writes uint64
}

// statsCounter is the shared hit/miss/write bookkeeping.
type statsCounter struct {
	mu    sync.Mutex
	stats Stats
}

func (c *statsCounter) hit()   { c.mu.Lock(); c.stats.Hits++; c.mu.Unlock() }
func (c *statsCounter) miss()  { c.mu.Lock(); c.stats.Misses++; c.mu.Unlock() }
func (c *statsCounter) write() { c.mu.Lock(); c.stats.Writes++; c.mu.Unlock() }

// Stats returns a snapshot of the store's traffic counters.
func (c *statsCounter) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
