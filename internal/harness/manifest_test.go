package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"coherentleak/internal/store"
)

func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")

	m := store.NewMemory()
	m.Store("fig2/LShared", &store.Entry{
		Digest:     "abc",
		Rows:       []string{"LShared\t98\t0.5"},
		Summary:    []string{"fig2 LShared mean=98"},
		WallMillis: 12.5,
	})
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := store.LoadMemory(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 1 {
		t.Fatalf("Len = %d", loaded.Len())
	}
	e, ok := loaded.Lookup("fig2/LShared", "abc")
	if !ok || e.Rows[0] != "LShared\t98\t0.5" || e.WallMillis != 12.5 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	if _, ok := loaded.Lookup("fig2/LShared", "different-digest"); ok {
		t.Fatal("stale digest hit")
	}
	if _, ok := loaded.Lookup("fig2/absent", "abc"); ok {
		t.Fatal("absent key hit")
	}
}

// TestManifestConcurrentStoreAndSave hammers Store/Lookup/Save from
// many goroutines — the daemon's shape, where jobs store cells while
// another job's completion triggers an atomic save. Run under -race via
// `make test-race`. Every observed on-disk manifest must parse (no torn
// writes) and the final save must contain every entry.
func TestManifestConcurrentStoreAndSave(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	m := store.NewMemory()

	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("art%d/cell%d", w, i)
				m.Store(key, &store.Entry{Digest: "d", Rows: []string{key}})
				if i%10 == 0 {
					if err := m.Save(path); err != nil {
						t.Error(err)
						return
					}
					if _, err := store.LoadMemory(path); err != nil {
						t.Errorf("torn manifest observed: %v", err)
						return
					}
				}
				m.Lookup(key, "d")
			}
		}(w)
	}
	wg.Wait()

	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	final, err := store.LoadMemory(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Len() != writers*perWriter {
		t.Fatalf("final manifest has %d entries, want %d", final.Len(), writers*perWriter)
	}
	// No temp files may be left behind by the atomic rename dance.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "manifest.json" {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestLoadManifestMissingFileIsEmpty(t *testing.T) {
	m, err := store.LoadMemory(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestLoadManifestVersionMismatchStartsCold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	data := `{"version": 999, "entries": {"k": {"digest": "d", "rows": ["r"]}}}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := store.LoadMemory(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatal("future-version manifest should be discarded, not read")
	}
}

func TestLoadManifestCorruptIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadMemory(path); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

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
