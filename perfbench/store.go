package main

import (
	"strings"
	"sync"
	"time"

	"coherentleak/internal/store"
)

// tracedStore decorates the CellStore handed to a Runner or a daemon,
// counting and timing every call into st and recording a span per call.
type tracedStore struct {
	inner store.CellStore
	rec   *Recorder
	st    *storeStats
}

// storeStats accumulates store traffic across every traced env of a run.
type storeStats struct {
	mu       sync.Mutex
	lookups  int
	hits     int
	lookupUS []float64
	puts     int
	putUS    []float64
}

// wrap decorates inner when the env is traced.
func (r *run) wrap(inner store.CellStore, traced bool) store.CellStore {
	if !traced {
		return inner
	}
	return &tracedStore{inner: inner, rec: r.rec, st: r.store}
}

// cellOf strips the input digest from a cache key, leaving the
// artifact/cell request ID.
func cellOf(key string) string {
	c, _, _ := strings.Cut(key, "@")
	return c
}

func (s *tracedStore) Lookup(key, digest string) (*store.Entry, bool) {
	start := time.Now()
	e, ok := s.inner.Lookup(key, digest)
	end := time.Now()
	s.rec.Add(0, "store.lookup", cellOf(key), start, end)
	s.st.mu.Lock()
	s.st.lookups++
	if ok {
		s.st.hits++
	}
	s.st.lookupUS = append(s.st.lookupUS, us(end.Sub(start)))
	s.st.mu.Unlock()
	return e, ok
}

func (s *tracedStore) Store(key string, e *store.Entry) {
	start := time.Now()
	s.inner.Store(key, e)
	end := time.Now()
	s.rec.Add(0, "store.put", cellOf(key), start, end)
	s.st.mu.Lock()
	s.st.puts++
	s.st.putUS = append(s.st.putUS, us(end.Sub(start)))
	s.st.mu.Unlock()
}

func (s *tracedStore) Len() int { return s.inner.Len() }

// report adds the store layer's metrics to m.
func (s *storeStats) report(m metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m.count("store.lookups", s.lookups)
	hitRatio := 0.0
	if s.lookups > 0 {
		hitRatio = float64(s.hits) / float64(s.lookups)
	}
	m.set("store.hit_ratio", hitRatio, "1", s.lookups)
	m.set("store.lookup_us.p50", median(s.lookupUS), "us", len(s.lookupUS))
	m.count("store.puts", s.puts)
	m.set("store.put_us.p50", median(s.putUS), "us", len(s.putUS))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
