package harness

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"coherentleak/internal/store"
)

func TestManifestLimitEvictsLeastRecentlyUsed(t *testing.T) {
	m := store.NewMemory()
	m.SetLimit(2)
	m.Store("a", &store.Entry{Digest: "da"})
	m.Store("b", &store.Entry{Digest: "db"})
	// Touch "a" so "b" becomes the LRU victim.
	if _, ok := m.Lookup("a", "da"); !ok {
		t.Fatal("a missing before eviction")
	}
	m.Store("c", &store.Entry{Digest: "dc"})
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	if _, ok := m.Lookup("b", "db"); ok {
		t.Fatal("LRU entry b survived")
	}
	if _, ok := m.Lookup("a", "da"); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if _, ok := m.Lookup("c", "dc"); !ok {
		t.Fatal("fresh entry c evicted")
	}

	// Shrinking the limit prunes immediately.
	m.SetLimit(1)
	if m.Len() != 1 {
		t.Fatalf("len after shrink = %d, want 1", m.Len())
	}
	// Lifting the limit stops eviction.
	m.SetLimit(0)
	m.Store("d", &store.Entry{Digest: "dd"})
	m.Store("e", &store.Entry{Digest: "de"})
	if m.Len() != 3 {
		t.Fatalf("len unbounded = %d, want 3", m.Len())
	}
}

// TestManifestPrunedEntryReruns is the LRU regression contract: once an
// entry is pruned, the next run re-executes that cell and produces the
// same bytes as the original — pruning trades work for memory, never
// correctness.
func TestManifestPrunedEntryReruns(t *testing.T) {
	var ran atomic.Int64
	arts := []*Artifact{shuffledArtifact("pruned", 6, &ran)}
	m := store.NewMemory()
	m.SetLimit(3) // half the artifact's cells fit
	r := &Runner{Parallel: 1, Manifest: m}

	first, err := r.Run(context.Background(), Plan{Seed: 3}, arts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != 6 {
		t.Fatalf("first run report = %+v", first)
	}
	if m.Len() != 3 {
		t.Fatalf("manifest grew past limit: %d", m.Len())
	}

	second, err := r.Run(context.Background(), Plan{Seed: 3}, arts)
	if err != nil {
		t.Fatal(err)
	}
	// Some cells were pruned and must re-execute; the surviving ones may
	// hit. Either way the assembled bytes must match the original run.
	if second.Executed == 0 {
		t.Fatal("no cell re-ran despite pruning")
	}
	if second.Executed+second.CacheHits != 6 {
		t.Fatalf("second run report = %+v", second)
	}
	if !bytes.Equal(first.Results[0].TSV(), second.Results[0].TSV()) {
		t.Fatalf("re-run TSV differs after pruning:\n%s\nvs\n%s",
			first.Results[0].TSV(), second.Results[0].TSV())
	}
}
