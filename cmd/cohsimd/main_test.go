package main

import (
	"fmt"
	"testing"

	"coherentleak/internal/store"
)

// TestOpenStore pins the daemon's two store modes: -store-dir selects a
// store.Disk in that directory; without it the store is an in-memory
// LRU holding at most -cache-max cells.
func TestOpenStore(t *testing.T) {
	dir := t.TempDir()
	cells, err := openStore(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	disk, ok := cells.(*store.Disk)
	if !ok || disk.Dir() != dir {
		t.Fatalf("-store-dir %s gave %T, want a store.Disk there", dir, cells)
	}

	cells, err = openStore("", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cells.(*store.Memory); !ok {
		t.Fatalf("no -store-dir gave %T, want a store.Memory", cells)
	}
	for i := 0; i < 5; i++ {
		cells.Store(fmt.Sprint(i), &store.Entry{Digest: "d"})
	}
	if n := cells.Len(); n != 2 {
		t.Fatalf("memory store holds %d cells, want the -cache-max bound 2", n)
	}
}
