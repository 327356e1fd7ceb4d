package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Both implementations must satisfy the interface.
var (
	_ CellStore = (*Memory)(nil)
	_ CellStore = (*Disk)(nil)
)

func testEntry(digest string, rows ...string) *Entry {
	return &Entry{Digest: digest, Rows: rows, Summary: []string{"sum"}, WallMillis: 1.5}
}

func TestDiskRoundtrip(t *testing.T) {
	d, err := NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("d1", "r1\t1", "r2\t2")
	d.Store("fig2/LShared@d1", e)

	got, ok := d.Lookup("fig2/LShared@d1", "d1")
	if !ok {
		t.Fatal("stored entry did not hit")
	}
	if len(got.Rows) != 2 || got.Rows[0] != "r1\t1" || got.Summary[0] != "sum" || got.WallMillis != 1.5 {
		t.Fatalf("entry mangled on roundtrip: %+v", got)
	}
	if _, ok := d.Lookup("fig2/LShared@d1", "other-digest"); ok {
		t.Fatal("digest mismatch must miss")
	}
	if _, ok := d.Lookup("missing", "d1"); ok {
		t.Fatal("missing key must miss")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	st := d.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Writes != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 write", st)
	}
}

// TestDiskTornEntryIsMissAndRewritten is the crash-safety contract: a
// truncated or corrupt entry file reads as a miss, is removed on sight,
// and the next Store rewrites it cleanly.
func TestDiskTornEntryIsMissAndRewritten(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Store("k", testEntry("d", "row"))
	path := d.path("k")

	// Truncate mid-JSON, as a torn write would leave it.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Lookup("k", "d"); ok {
		t.Fatal("torn entry must read as a miss")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn entry not removed: stat err = %v", err)
	}

	// Outright garbage behaves the same.
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Lookup("k", "d"); ok {
		t.Fatal("corrupt entry must read as a miss")
	}

	// The slot rewrites and serves again.
	d.Store("k", testEntry("d", "row"))
	if got, ok := d.Lookup("k", "d"); !ok || got.Rows[0] != "row" {
		t.Fatalf("rewritten entry must hit: ok=%v got=%+v", ok, got)
	}
}

// TestDiskSharedDirectory is the multi-replica contract: two stores
// opened on the same directory see each other's writes immediately, and
// writing the same entry through either produces byte-identical files.
func TestDiskSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}

	a.Store("k1", testEntry("d1", "from-a"))
	if got, ok := b.Lookup("k1", "d1"); !ok || got.Rows[0] != "from-a" {
		t.Fatalf("replica b must see replica a's write: ok=%v got=%+v", ok, got)
	}

	// Same entry through either store: identical bytes on disk.
	first, err := os.ReadFile(a.path("k1"))
	if err != nil {
		t.Fatal(err)
	}
	b.Store("k1", testEntry("d1", "from-a"))
	second, err := os.ReadFile(b.path("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("same entry written by two stores differs:\n%s\nvs\n%s", first, second)
	}
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("Len: a=%d b=%d, want 1 each", a.Len(), b.Len())
	}
}

// TestDiskEvictionUnderSizeBound fills a bounded store past its cap and
// checks the oldest entries are evicted while the newest survive.
func TestDiskEvictionUnderSizeBound(t *testing.T) {
	dir := t.TempDir()
	// Size one entry first so the bound can be set to hold ~4 of them.
	probe, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	probe.Store("probe", testEntry("d", strings.Repeat("x", 256)))
	info, err := os.Stat(probe.path("probe"))
	if err != nil {
		t.Fatal(err)
	}
	entrySize := info.Size()
	os.Remove(probe.path("probe"))

	d, err := NewDisk(dir, 4*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		d.Store(key, testEntry("d", strings.Repeat("x", 256)))
		// Distinct mtimes so eviction order is by age, not name.
		old := time.Now().Add(time.Duration(i-8) * time.Hour)
		if err := os.Chtimes(d.path(key), old, old); err != nil {
			t.Fatal(err)
		}
	}
	d.evict()
	if n := d.Len(); n > 4 || n == 0 {
		t.Fatalf("after eviction Len = %d, want in (0, 4]", n)
	}
	// The newest entries must survive; the oldest must be gone.
	if _, ok := d.Lookup("k7", "d"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := d.Lookup("k0", "d"); ok {
		t.Fatal("oldest entry survived eviction")
	}
}

// TestDiskUnboundedNeverEvicts pins that maxBytes == 0 means unbounded.
func TestDiskUnboundedNeverEvicts(t *testing.T) {
	d, err := NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		d.Store(fmt.Sprintf("k%d", i), testEntry("d", strings.Repeat("x", 512)))
	}
	if d.Len() != 32 {
		t.Fatalf("Len = %d, want 32", d.Len())
	}
}

// TestDiskReopenSeesExistingEntries pins crash-restart behavior: a new
// store over an existing directory serves what is already there.
func TestDiskReopenSeesExistingEntries(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d1.Store("k", testEntry("d", "persisted"))

	d2, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d2.Lookup("k", "d"); !ok || got.Rows[0] != "persisted" {
		t.Fatalf("reopened store must serve existing entries: ok=%v got=%+v", ok, got)
	}
	if filepath.Dir(d2.path("k")) != dir {
		t.Fatalf("entry path %q escaped store dir %q", d2.path("k"), dir)
	}
}

// TestDiskStaleTempRemovedOnOpen pins crash cleanup: a temp file a
// crashed writer left behind is removed when a store opens the
// directory, while a fresh one — another replica's in-flight write —
// is left alone.
func TestDiskStaleTempRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, diskTempPrefix+"123")
	fresh := filepath.Join(dir, diskTempPrefix+"456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte(`{"version":1,"key":"k"`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	d, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived NewDisk: stat err = %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file removed: %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("temp files counted as entries: Len = %d", d.Len())
	}
}

// TestDiskWrongVersionIsMissAndRemoved: an entry written under another
// layout version never hits, even with the right key and digest, and is
// deleted so the slot is rewritten.
func TestDiskWrongVersionIsMissAndRemoved(t *testing.T) {
	d, err := NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(diskEntry{Version: diskVersion + 1, Key: "k", Entry: *testEntry("d", "row")})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path("k"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Lookup("k", "d"); ok {
		t.Fatal("wrong-version entry must read as a miss")
	}
	if _, err := os.Stat(d.path("k")); !os.IsNotExist(err) {
		t.Fatalf("wrong-version entry not removed: stat err = %v", err)
	}
}

// TestDiskConcurrentStoreAndLookup hammers one key from many goroutines
// (the shape of several jobs or replicas finishing the same cell) while
// another key is written alongside. Run under -race via `make
// test-race`. Once a goroutine has stored the key, every lookup must hit
// a whole entry written for that key — never a torn file, never the
// other key's entry — and no temp file may be left behind.
func TestDiskConcurrentStoreAndLookup(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				d.Store("k", testEntry("d", fmt.Sprintf("k\tw%d", w), "tail"))
				d.Store("other", testEntry("d", fmt.Sprintf("other\tw%d", w), "tail"))
				got, ok := d.Lookup("k", "d")
				if !ok {
					t.Errorf("writer %d round %d: lookup after store missed", w, i)
					return
				}
				if len(got.Rows) != 2 || !strings.HasPrefix(got.Rows[0], "k\tw") || got.Rows[1] != "tail" || got.Summary[0] != "sum" {
					t.Errorf("writer %d round %d: torn or foreign entry %+v", w, i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), diskSuffix) {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

// FuzzDiskLookup writes arbitrary bytes as a key's entry file and looks
// the key up. Lookup must never panic; it may hit only when the bytes
// decode to the current version, the asked-for key and digest (and
// then return exactly the decoded entry); and a file that does not
// decode, or decodes to another version, must be removed.
func FuzzDiskLookup(f *testing.F) {
	good, err := json.Marshal(diskEntry{Version: diskVersion, Key: "k", Entry: *testEntry("d", "row")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, "k", "d")
	f.Add(good, "k", "other")
	f.Add(good[:len(good)/2], "k", "d")
	f.Add([]byte(`{"version":2,"key":"k","entry":{"digest":"d"}}`), "k", "d")
	f.Add([]byte(`{"version":1,"key":"x","entry":{"digest":"d"}}`), "k", "d")
	f.Add([]byte(`null`), "k", "")
	f.Add([]byte(`{"version":1,"key":"k","entry":{"digest":"d","rows":null}}`), "k", "d")
	f.Fuzz(func(t *testing.T, data []byte, key, digest string) {
		d, err := NewDisk(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		path := d.path(key)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var want diskEntry
		decoded := json.Unmarshal(data, &want) == nil
		wantHit := decoded && want.Version == diskVersion && want.Key == key && want.Entry.Digest == digest

		got, ok := d.Lookup(key, digest)
		if ok != wantHit {
			t.Fatalf("Lookup hit = %v, want %v (decoded %v, entry %+v)", ok, wantHit, decoded, want)
		}
		if ok && !reflect.DeepEqual(*got, want.Entry) {
			t.Fatalf("Lookup returned %+v, file holds %+v", *got, want.Entry)
		}
		_, statErr := os.Stat(path)
		if removed := os.IsNotExist(statErr); removed != (!decoded || want.Version != diskVersion) {
			t.Fatalf("file removed = %v (decoded %v, version %d)", removed, decoded, want.Version)
		}
	})
}
