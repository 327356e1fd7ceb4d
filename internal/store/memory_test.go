package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// scanLRU is the reference model of Memory's eviction: every hit or
// store takes a fresh clock tick, and an eviction scans all entries for
// the smallest tick, breaking ties on the smaller key.
type scanLRU struct {
	limit   int
	clock   uint64
	digest  map[string]string
	lastUse map[string]uint64
}

func (s *scanLRU) lookup(key, digest string) bool {
	if d, ok := s.digest[key]; !ok || d != digest {
		return false
	}
	s.clock++
	s.lastUse[key] = s.clock
	return true
}

func (s *scanLRU) store(key, digest string) {
	s.digest[key] = digest
	s.clock++
	s.lastUse[key] = s.clock
	s.prune()
}

func (s *scanLRU) setLimit(n int) {
	s.limit = n
	s.prune()
}

func (s *scanLRU) prune() {
	if s.limit <= 0 {
		return
	}
	for len(s.digest) > s.limit {
		var victim string
		var oldest uint64
		first := true
		for k := range s.digest {
			use := s.lastUse[k]
			if first || use < oldest || (use == oldest && k < victim) {
				victim, oldest, first = k, use, false
			}
		}
		delete(s.digest, victim)
		delete(s.lastUse, victim)
	}
}

func (s *scanLRU) keys() []string {
	out := make([]string, 0, len(s.digest))
	for k := range s.digest {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func memoryKeys(m *Memory) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.entries))
	for k := range m.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestMemoryEvictsLikeScan drives Memory and the scanning reference
// through the same random Store/Lookup/SetLimit sequences and checks,
// after every operation, that both hold the same keys and agree on
// every lookup.
func TestMemoryEvictsLikeScan(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemory()
		ref := &scanLRU{digest: map[string]string{}, lastUse: map[string]uint64{}}
		for step := 0; step < 400; step++ {
			key := fmt.Sprintf("k%02d", rng.Intn(16))
			digest := fmt.Sprintf("d%d", rng.Intn(2))
			var op string
			switch r := rng.Intn(20); {
			case r == 0:
				n := rng.Intn(9)
				op = fmt.Sprintf("SetLimit(%d)", n)
				m.SetLimit(n)
				ref.setLimit(n)
			case r < 10:
				op = fmt.Sprintf("Store(%s, %s)", key, digest)
				m.Store(key, &Entry{Digest: digest})
				ref.store(key, digest)
			default:
				op = fmt.Sprintf("Lookup(%s, %s)", key, digest)
				e, hit := m.Lookup(key, digest)
				if want := ref.lookup(key, digest); hit != want || (hit && e.Digest != digest) {
					t.Fatalf("seed %d step %d: %s hit=%v, model says %v", seed, step, op, hit, want)
				}
			}
			if got, want := memoryKeys(m), ref.keys(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: after %s store holds %v, model holds %v", seed, step, op, got, want)
			}
			if m.Len() != len(ref.digest) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, m.Len(), len(ref.digest))
			}
		}
	}
}

// BenchmarkMemoryStoreFull times one Store into a full store at
// cohsimd's default -cache-max, which evicts one entry per Store.
func BenchmarkMemoryStoreFull(b *testing.B) {
	const limit = 50000
	keys := make([]string, 2*limit)
	for i := range keys {
		keys[i] = fmt.Sprintf("fig2/cell-%06d@digest", i)
	}
	e := &Entry{Digest: "digest"}
	m := NewMemory()
	m.SetLimit(limit)
	for _, k := range keys[:limit] {
		m.Store(k, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycling through twice the limit makes every key absent when
		// it comes round again, so each Store evicts.
		m.Store(keys[(limit+i)%len(keys)], e)
	}
}
