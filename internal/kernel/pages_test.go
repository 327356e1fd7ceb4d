package kernel

import (
	"math/bits"
	"testing"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// conflictFootprint is the page count one LLC eviction-set search maps
// on the default machine (TestBuildSpyEvictionSetFootprint in
// internal/covert), one Mmap(1) at a time.
const conflictFootprint = 3073

// mapFootprint maps conflictFootprint pages into a fresh process one
// page at a time, as the conflict search does, then exits it.
func mapFootprint(k *Kernel) {
	p := k.NewProcess("search")
	for i := 0; i < conflictFootprint; i++ {
		if _, err := p.Mmap(1); err != nil {
			panic(err)
		}
	}
	p.Exit()
}

// TestMmapAllocatesPerTableGrowth: page tables and the frame table are
// value tables, so mapping n pages one at a time allocates only when a
// table grows — O(log n) objects, not one or more per page.
func TestMmapAllocatesPerTableGrowth(t *testing.T) {
	k := newKernel(t)
	allocs := testing.AllocsPerRun(5, func() { mapFootprint(k) })
	if limit := float64(4 * bits.Len(conflictFootprint)); allocs > limit {
		t.Fatalf("mapping %d pages allocates %.0f objects, want <= %.0f", conflictFootprint, allocs, limit)
	}
	if k.Memory().Allocated != 0 {
		t.Fatalf("%d frames leaked", k.Memory().Allocated)
	}
}

// BenchmarkMmapPages measures one conflict-search footprint: 3073
// single-page mappings into a fresh process, then its exit.
func BenchmarkMmapPages(b *testing.B) {
	k := New(machine.New(sim.NewWorld(sim.Config{Seed: 1}), machine.DefaultConfig()), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mapFootprint(k)
	}
}

// TestStateVisibleAfterPageTableGrowth: KSM merges, COW breaks and
// forced unmerges made after Mmap has reallocated the page tables show
// through every accessor. Entries are mutated in the live table, never
// through a pointer into a table that has since grown; PTEOf returns a
// copy, so an entry read earlier is a snapshot.
func TestStateVisibleAfterPageTableGrowth(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	va, vb := a.MustMmap(1), b.MustMmap(1)
	fillPattern(t, a, va, 0x3c)
	fillPattern(t, b, vb, 0x3c)
	a.Madvise(va, 1)
	b.Madvise(vb, 1)
	grow := func() { a.MustMmap(4096); b.MustMmap(4096) }
	snapshot := a.PTEOf(va)

	grow()
	if n := k.KSM.Scan(); n != 1 {
		t.Fatalf("Scan merged %d mappings, want 1", n)
	}
	grow()
	merged := a.PTEOf(va)
	if !a.SharesFrameWith(va, b, vb) || merged.Writable || b.PTEOf(vb).Writable {
		t.Fatal("KSM merge not visible after the page tables grew")
	}
	if k.Memory().Refs(merged.Frame) != 2 || !k.Memory().MergedByKSM(merged.Frame) {
		t.Fatalf("merged frame refs %d, MergedByKSM %v", k.Memory().Refs(merged.Frame), k.Memory().MergedByKSM(merged.Frame))
	}
	if !snapshot.Writable || snapshot.Frame != merged.Frame {
		t.Fatal("PTEOf result aliases the live entry")
	}

	// A timed store COW-breaks the merge after its thread grew b's table.
	var faults int
	k.Spawn(b, 0, "writer", func(th *Thread) {
		b.MustMmap(4096)
		th.Store(vb)
		faults = th.Faults
	})
	if err := k.World().Run(); err != nil {
		t.Fatal(err)
	}
	grow()
	if faults != 1 || a.SharesFrameWith(va, b, vb) || !b.PTEOf(vb).Writable {
		t.Fatalf("COW break not visible after growth (faults %d)", faults)
	}
	if got, _ := b.ReadBytes(vb, 1); got[0] != 0x3c {
		t.Fatalf("b's private copy reads %#x", got[0])
	}
	if k.Memory().Refs(a.PTEOf(va).Frame) != 1 {
		t.Fatal("a's frame still counts b's mapping")
	}

	// Re-merge, grow, and force the split through UnmergePage.
	fillPattern(t, b, vb, 0x3c)
	if n := k.KSM.Scan(); n != 1 {
		t.Fatalf("re-merge merged %d, want 1", n)
	}
	grow()
	frame := a.PTEOf(va).Frame
	if split := k.KSM.UnmergePage(frame); split != 2 {
		t.Fatalf("UnmergePage split %d mappings, want 2", split)
	}
	grow()
	if a.SharesFrameWith(va, b, vb) || !a.PTEOf(va).Writable || !b.PTEOf(vb).Writable {
		t.Fatal("forced unmerge not visible after growth")
	}
	if k.Memory().MergedByKSM(a.PTEOf(va).Frame) || k.Memory().MergedByKSM(b.PTEOf(vb).Frame) {
		t.Fatal("split frames still marked MergedByKSM")
	}
}
