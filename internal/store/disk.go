package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// diskVersion identifies the per-entry file layout. A bump makes old
// entries read as misses (and they are removed on sight).
const diskVersion = 1

// diskSuffix marks entry files; anything else in the directory (temp
// files mid-write, stray files) is ignored by lookups and eviction.
const diskSuffix = ".cell"

// diskTempPrefix marks the temp files Store writes before renaming
// them into place.
const diskTempPrefix = ".cell-"

// staleTempAge is how old a temp file must be before NewDisk removes it
// as a crashed writer's leftover. A live writer holds one only for the
// milliseconds between CreateTemp and Rename, so an hour never touches
// another replica's in-flight write.
const staleTempAge = time.Hour

// diskEntry is the on-disk envelope around an Entry. The key rides
// along so a lookup verifies it read the entry it asked for (the file
// name is only a hash of the key) and so the directory stays
// debuggable with nothing but cat.
type diskEntry struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Entry   Entry  `json:"entry"`
}

// Disk is a crash-safe content-addressed cell store: one file per
// entry, written temp+fsync+rename so a reader (in this process or any
// other pointed at the same directory) can never observe a torn entry.
// Corrupt or truncated files — a crash mid-rename on a non-atomic
// filesystem, a partial copy — are treated as misses and deleted, so
// the next Store rewrites them. Because every entry is keyed by the
// full input digest, N cohsimd replicas sharing one directory share
// hits without any coordination beyond the filesystem.
type Disk struct {
	statsCounter

	dir string
	// maxBytes bounds the directory's entry payload; 0 means unbounded.
	// When a Store pushes usage past the bound, the oldest entries (by
	// mtime; lookups touch mtime, so this approximates LRU) are evicted
	// until usage fits again.
	maxBytes int64

	// mu guards usage and serializes eviction scans. Lookups do not take
	// it: they go straight to the filesystem, which is what lets
	// replicas share the directory.
	mu    sync.Mutex
	usage int64
}

// NewDisk opens (creating if needed) a shared cell-store directory.
// maxBytes bounds the total entry payload, 0 means unbounded. Temp
// files older than staleTempAge are removed: a crash between a
// Store's CreateTemp and Rename leaves one behind, and nothing else
// would ever reclaim it.
func NewDisk(dir string, maxBytes int64) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: disk: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: disk: %w", err)
	}
	d := &Disk{dir: dir, maxBytes: maxBytes}
	d.usage = d.scan()
	return d, nil
}

// Dir reports the store's directory.
func (d *Disk) Dir() string { return d.dir }

// path maps a cache key to its entry file. The key embeds the full
// input digest, so hashing it yields a content address: equal inputs
// collapse onto one file no matter which replica writes first.
func (d *Disk) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+diskSuffix)
}

// Lookup reads the entry straight from the filesystem so hits written
// by other replicas are visible immediately. Any unreadable, torn, or
// mismatched file is a miss; corrupt files are deleted so the next
// Store rewrites them cleanly.
func (d *Disk) Lookup(key, digest string) (*Entry, bool) {
	path := d.path(key)
	b, err := os.ReadFile(path)
	if err != nil {
		d.miss()
		return nil, false
	}
	var de diskEntry
	if err := json.Unmarshal(b, &de); err != nil {
		// Torn or truncated write (or garbage): treat as a miss and
		// remove it so the slot is rewritten rather than re-parsed on
		// every lookup.
		os.Remove(path)
		d.miss()
		return nil, false
	}
	if de.Version != diskVersion || de.Key != key || de.Entry.Digest != digest {
		if de.Version != diskVersion {
			os.Remove(path)
		}
		d.miss()
		return nil, false
	}
	// Touch the entry so size-bounded eviction approximates LRU rather
	// than FIFO. Best-effort: a failed touch only ages the entry.
	now := time.Now()
	os.Chtimes(path, now, now)
	d.hit()
	return &de.Entry, true
}

// Store writes the entry atomically: marshal, temp file in the store
// directory, fsync, rename over the final name, best-effort directory
// sync. A failed store is dropped silently — the cell simply re-runs
// next time — because a cache must never fail the run it serves.
func (d *Disk) Store(key string, e *Entry) {
	b, err := json.Marshal(diskEntry{Version: diskVersion, Key: key, Entry: *e})
	if err != nil {
		return
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(d.dir, diskTempPrefix+"*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	// Sync the directory so the rename itself survives a crash.
	if dir, err := os.Open(d.dir); err == nil {
		dir.Sync()
		dir.Close()
	}
	d.write()

	if d.maxBytes <= 0 {
		return
	}
	d.mu.Lock()
	d.usage += int64(len(b))
	over := d.usage > d.maxBytes
	d.mu.Unlock()
	if over {
		d.evict()
	}
}

// Len counts the entries currently in the directory — including ones
// written by other replicas since this store opened.
func (d *Disk) Len() int {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), diskSuffix) {
			n++
		}
	}
	return n
}

// scan sums the entry payload on disk and removes stale temp files.
func (d *Disk) scan() int64 {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			continue
		}
		switch name := ent.Name(); {
		case strings.HasSuffix(name, diskSuffix):
			total += info.Size()
		case strings.HasPrefix(name, diskTempPrefix) && time.Since(info.ModTime()) > staleTempAge:
			os.Remove(filepath.Join(d.dir, name))
		}
	}
	return total
}

// evict rescans the directory (the approximate usage counter cannot see
// other replicas' writes) and removes the oldest entries until the
// payload fits the bound again. Ties on mtime break on file name so
// eviction order is deterministic.
func (d *Disk) evict() {
	d.mu.Lock()
	defer d.mu.Unlock()

	type fileInfo struct {
		name string
		size int64
		mod  time.Time
	}
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	var files []fileInfo
	var total int64
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), diskSuffix) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{ent.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].name < files[j].name
	})
	for _, f := range files {
		if total <= d.maxBytes {
			break
		}
		if err := os.Remove(filepath.Join(d.dir, f.name)); err == nil || os.IsNotExist(err) {
			total -= f.size
		}
	}
	d.usage = total
}
