package kernel

import (
	"testing"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

func TestMapSharedReadOnlyThreeProcesses(t *testing.T) {
	k := newKernel(t)
	a, b, c := k.NewProcess("a"), k.NewProcess("b"), k.NewProcess("c")
	vas, err := k.MapShared(false, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(vas) != 3 {
		t.Fatalf("vas = %v", vas)
	}
	if !a.SharesFrameWith(vas[0], b, vas[1]) || !b.SharesFrameWith(vas[1], c, vas[2]) {
		t.Fatal("not all processes share the frame")
	}
	frame := a.PTEOf(vas[0]).Frame
	if k.Memory().Refs(frame) != 3 {
		t.Fatalf("refs = %d, want 3", k.Memory().Refs(frame))
	}
	// The mapping is read-only: any write must COW-split.
	if a.PTEOf(vas[0]).Writable {
		t.Fatal("shared mapping is writable")
	}
	if err := a.WriteBytes(vas[0], []byte{1}); err != nil {
		t.Fatal(err)
	}
	if a.SharesFrameWith(vas[0], b, vas[1]) {
		t.Fatal("write did not split the shared mapping")
	}
	if b.SharesFrameWith(vas[1], c, vas[2]) {
		// b and c still share: correct.
	} else {
		t.Fatal("unrelated mappings split")
	}
}

// A writable shared mapping is the shm path: a store lands on the
// common frame instead of splitting it.
func TestMapSharedWritableKeepsFrame(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	vas, err := k.MapShared(true, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteBytes(vas[0], []byte{7}); err != nil {
		t.Fatal(err)
	}
	if !a.SharesFrameWith(vas[0], b, vas[1]) {
		t.Fatal("write split the writable shared mapping")
	}
	got, err := b.ReadBytes(vas[1], 1)
	if err != nil || got[0] != 7 {
		t.Fatalf("b reads %v, %v; want the shared store", got, err)
	}
}

func TestMapSharedReadOnlyNoProcs(t *testing.T) {
	k := newKernel(t)
	if _, err := k.MapShared(false); err == nil {
		t.Fatal("empty process list accepted")
	}
}

func TestProcessPages(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess("p")
	va := p.MustMmap(3)
	pages := p.Pages()
	if len(pages) != 3 {
		t.Fatalf("pages = %v", pages)
	}
	for i := 1; i < len(pages); i++ {
		if pages[i] <= pages[i-1] {
			t.Fatal("pages not ascending")
		}
	}
	if pages[0] != va/PageSize {
		t.Fatalf("first page = %d, want %d", pages[0], va/PageSize)
	}
}

func TestThreadPreemptAdvancesClock(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 9})
	k := New(machine.New(w, machine.DefaultConfig()), 0)
	p := k.NewProcess("p")
	var before, after sim.Cycles
	k.Spawn(p, 0, "t", func(kt *Thread) {
		before = kt.Now()
		kt.Preempt(5000)
		after = kt.Now()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if after-before != 5000 {
		t.Fatalf("preempt advanced %d cycles", after-before)
	}
}

// A flush only needs read access: it must work on a read-only (merged or
// shared) page without faulting.
func TestFlushOnReadOnlyPage(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	vas, err := k.MapShared(false, a, b)
	if err != nil {
		t.Fatal(err)
	}
	faults := -1
	k.Spawn(a, 0, "t", func(kt *Thread) {
		kt.Load(vas[0])
		kt.Flush(vas[0])
		faults = kt.Faults
	})
	if err := k.World().Run(); err != nil {
		t.Fatal(err)
	}
	if faults != 0 {
		t.Fatalf("flush faulted (%d faults)", faults)
	}
	// Frame must still be shared.
	if !a.SharesFrameWith(vas[0], b, vas[1]) {
		t.Fatal("flush split the page")
	}
}

func TestMunmapReleasesFrames(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess("p")
	va := p.MustMmap(4)
	before := k.Memory().Allocated
	if err := p.Munmap(va+PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if k.Memory().Allocated != before-2 {
		t.Fatalf("allocated %d -> %d, want -2", before, k.Memory().Allocated)
	}
	if _, err := p.Translate(va + PageSize); err == nil {
		t.Fatal("unmapped page still translates")
	}
	if _, err := p.Translate(va); err != nil {
		t.Fatal("neighbouring page lost")
	}
	// Partial overlap with an unmapped page must fail atomically.
	if err := p.Munmap(va, 3); err == nil {
		t.Fatal("range with a hole accepted")
	}
	if _, err := p.Translate(va); err != nil {
		t.Fatal("failed munmap modified the address space")
	}
}

func TestExitReleasesEverythingButSharedSurvives(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	va, vb := a.MustMmap(1), b.MustMmap(1)
	fillPattern(t, a, va, 0x61)
	fillPattern(t, b, vb, 0x61)
	a.Madvise(va, 1)
	b.Madvise(vb, 1)
	k.KSM.Scan()
	if !a.SharesFrameWith(va, b, vb) {
		t.Fatal("setup: merge failed")
	}
	frame := b.PTEOf(vb).Frame
	a.Exit()
	// b's view of the merged frame survives a's exit.
	if b.PTEOf(vb).Frame != frame || k.Memory().Refs(frame) != 1 {
		t.Fatalf("shared frame damaged by exit (refs %d)", k.Memory().Refs(frame))
	}
	got, err := b.ReadBytes(vb, 8)
	if err != nil || got[0] == 0 {
		t.Fatalf("survivor contents lost: %v %v", got, err)
	}
	b.Exit()
	if k.Memory().Allocated != 0 {
		t.Fatalf("leak: %d frames after both exits", k.Memory().Allocated)
	}
}
