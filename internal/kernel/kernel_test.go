package kernel

import (
	"bytes"
	"testing"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

func newKernel(t *testing.T) *Kernel {
	t.Helper()
	w := sim.NewWorld(sim.Config{Seed: 42})
	return New(machine.New(w, machine.DefaultConfig()), 0)
}

func TestMmapAndTranslate(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess("a")
	va, err := p.Mmap(4)
	if err != nil {
		t.Fatal(err)
	}
	if va%PageSize != 0 {
		t.Fatalf("mmap returned unaligned address %#x", va)
	}
	for i := uint64(0); i < 4; i++ {
		pa, err := p.Translate(va + i*PageSize + 123)
		if err != nil {
			t.Fatal(err)
		}
		if pa%PageSize != 123 {
			t.Fatalf("offset not preserved: %#x", pa)
		}
	}
	if _, err := p.Translate(va + 4*PageSize); err == nil {
		t.Fatal("translate past mapping succeeded")
	}
	if _, err := p.Translate(0); err == nil {
		t.Fatal("null translate succeeded")
	}
}

func TestMmapZeroPagesFails(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess("a")
	if _, err := p.Mmap(0); err == nil {
		t.Fatal("Mmap(0) succeeded")
	}
}

func TestMmapRollbackOnExhaustion(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 1})
	k := New(machine.New(w, machine.DefaultConfig()), 2)
	p := k.NewProcess("a")
	if _, err := p.Mmap(3); err == nil {
		t.Fatal("overcommitted mmap succeeded")
	}
	if k.Memory().Allocated != 0 {
		t.Fatalf("rollback leaked %d frames", k.Memory().Allocated)
	}
	if _, err := p.Mmap(2); err != nil {
		t.Fatalf("mmap after rollback failed: %v", err)
	}
}

func TestProcessIsolation(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	va := a.MustMmap(1)
	vb := b.MustMmap(1)
	if a.SharesFrameWith(va, b, vb) {
		t.Fatal("fresh mappings share a frame")
	}
	paA, _ := a.Translate(va)
	paB, _ := b.Translate(vb)
	if paA == paB {
		t.Fatal("distinct processes share physical pages without KSM")
	}
}

func TestWriteReadBytes(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess("a")
	va := p.MustMmap(2)
	msg := []byte("coherence states leak")
	// Cross the page boundary deliberately.
	at := va + PageSize - 7
	if err := p.WriteBytes(at, msg); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBytes(at, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
}

func fillPattern(t *testing.T, p *Process, va uint64, seed byte) {
	t.Helper()
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = seed ^ byte(i*7)
	}
	if err := p.WriteBytes(va, buf); err != nil {
		t.Fatal(err)
	}
}

func TestKSMMergesIdenticalPages(t *testing.T) {
	k := newKernel(t)
	trojan, spy := k.NewProcess("trojan"), k.NewProcess("spy")
	vt := trojan.MustMmap(1)
	vs := spy.MustMmap(1)
	fillPattern(t, trojan, vt, 0x5a)
	fillPattern(t, spy, vs, 0x5a)
	if err := trojan.Madvise(vt, 1); err != nil {
		t.Fatal(err)
	}
	if err := spy.Madvise(vs, 1); err != nil {
		t.Fatal(err)
	}
	before := k.Memory().Allocated
	if n := k.KSM.Scan(); n != 1 {
		t.Fatalf("Scan merged %d mappings, want 1", n)
	}
	if !trojan.SharesFrameWith(vt, spy, vs) {
		t.Fatal("pages not merged")
	}
	if k.Memory().Allocated != before-1 {
		t.Fatalf("duplicate frame not released: %d -> %d", before, k.Memory().Allocated)
	}
	// Both mappings must now be read-only COW.
	if trojan.PTEOf(vt).Writable || spy.PTEOf(vs).Writable {
		t.Fatal("merged mapping left writable")
	}
	if !k.Memory().MergedByKSM(trojan.PTEOf(vt).Frame) {
		t.Fatal("survivor frame not marked MergedByKSM")
	}
}

func TestKSMEarliestProcessWins(t *testing.T) {
	k := newKernel(t)
	first := k.NewProcess("first")
	vf := first.MustMmap(1)
	fillPattern(t, first, vf, 0x11)
	first.Madvise(vf, 1)
	frameBefore := first.PTEOf(vf).Frame

	second := k.NewProcess("second")
	vs := second.MustMmap(1)
	fillPattern(t, second, vs, 0x11)
	second.Madvise(vs, 1)

	k.KSM.Scan()
	if first.PTEOf(vf).Frame != frameBefore {
		t.Fatal("canonical frame is not the earliest process's")
	}
	if second.PTEOf(vs).Frame != frameBefore {
		t.Fatal("later page not redirected to earliest frame")
	}
}

func TestKSMIgnoresNonMergeable(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	va, vb := a.MustMmap(1), b.MustMmap(1)
	fillPattern(t, a, va, 0x33)
	fillPattern(t, b, vb, 0x33)
	a.Madvise(va, 1) // b did not madvise
	if n := k.KSM.Scan(); n != 0 {
		t.Fatalf("merged %d without both sides mergeable", n)
	}
}

func TestKSMIgnoresDifferentContents(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	va, vb := a.MustMmap(1), b.MustMmap(1)
	fillPattern(t, a, va, 0x33)
	fillPattern(t, b, vb, 0x44)
	a.Madvise(va, 1)
	b.Madvise(vb, 1)
	if n := k.KSM.Scan(); n != 0 {
		t.Fatalf("merged %d pages with different contents", n)
	}
}

func TestKSMThreeWayMergeAndThirdPartyDetection(t *testing.T) {
	// The §IV hazard: an unrelated process with the same bit pattern
	// merges into the trojan/spy page.
	k := newKernel(t)
	procs := make([]*Process, 3)
	vas := make([]uint64, 3)
	for i, name := range []string{"trojan", "spy", "bystander"} {
		procs[i] = k.NewProcess(name)
		vas[i] = procs[i].MustMmap(1)
		fillPattern(t, procs[i], vas[i], 0x77)
		procs[i].Madvise(vas[i], 1)
	}
	if n := k.KSM.Scan(); n != 2 {
		t.Fatalf("merged %d mappings, want 2", n)
	}
	frame := procs[0].PTEOf(vas[0]).Frame
	if k.Memory().Refs(frame) != 3 {
		t.Fatalf("canonical frame refs = %d, want 3", k.Memory().Refs(frame))
	}
}

func TestKSMScanIdempotent(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	va, vb := a.MustMmap(1), b.MustMmap(1)
	fillPattern(t, a, va, 0x21)
	fillPattern(t, b, vb, 0x21)
	a.Madvise(va, 1)
	b.Madvise(vb, 1)
	k.KSM.Scan()
	if n := k.KSM.Scan(); n != 0 {
		t.Fatalf("second scan merged %d more", n)
	}
	if k.KSM.Scans != 2 {
		t.Fatalf("Scans = %d", k.KSM.Scans)
	}
}

func TestCOWBreakOnWriteToMergedPage(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	va, vb := a.MustMmap(1), b.MustMmap(1)
	fillPattern(t, a, va, 0x66)
	fillPattern(t, b, vb, 0x66)
	a.Madvise(va, 1)
	b.Madvise(vb, 1)
	k.KSM.Scan()
	if !a.SharesFrameWith(va, b, vb) {
		t.Fatal("setup: merge failed")
	}
	// A write by one sharer must split the page, leaving the other's
	// contents intact (no direct communication possible — §IV).
	if err := a.WriteBytes(va, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if a.SharesFrameWith(va, b, vb) {
		t.Fatal("write did not split merged page")
	}
	got, _ := b.ReadBytes(vb, 1)
	if got[0] == 0xFF {
		t.Fatal("write leaked through merged page")
	}
	if k.KSM.Unmerged != 1 {
		t.Fatalf("Unmerged = %d", k.KSM.Unmerged)
	}
}

func TestUnmergePageMitigation(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	va, vb := a.MustMmap(1), b.MustMmap(1)
	fillPattern(t, a, va, 0x42)
	fillPattern(t, b, vb, 0x42)
	a.Madvise(va, 1)
	b.Madvise(vb, 1)
	k.KSM.Scan()
	frame := a.PTEOf(va).Frame
	split := k.KSM.UnmergePage(frame)
	if split == 0 {
		t.Fatal("UnmergePage split nothing")
	}
	if a.SharesFrameWith(va, b, vb) {
		t.Fatal("pages still merged after forced unmerge")
	}
}

func TestSpawnThreadTimedOps(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess("p")
	va := p.MustMmap(1)
	var first, second machine.Access
	k.Spawn(p, 0, "worker", func(t *Thread) {
		first = t.Load(va)
		second = t.Load(va)
	})
	if err := k.World().Run(); err != nil {
		t.Fatal(err)
	}
	if first.Path != machine.PathDRAM {
		t.Errorf("first load path = %v", first.Path)
	}
	if second.Path != machine.PathL1 {
		t.Errorf("second load path = %v", second.Path)
	}
}

func TestSpawnPinningValidated(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess("p")
	defer func() {
		if recover() == nil {
			t.Fatal("spawn on core 99 did not panic")
		}
	}()
	k.Spawn(p, 99, "bad", func(t *Thread) {})
}

func TestThreadSocket(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess("p")
	done := false
	k.Spawn(p, 7, "w", func(t *Thread) {
		if t.Socket() != 1 {
			panic("core 7 should be socket 1")
		}
		done = true
	})
	if err := k.World().Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("thread body did not run")
	}
}

func TestStoreFaultOnMergedPage(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	va, vb := a.MustMmap(1), b.MustMmap(1)
	fillPattern(t, a, va, 0x10)
	fillPattern(t, b, vb, 0x10)
	a.Madvise(va, 1)
	b.Madvise(vb, 1)
	k.KSM.Scan()

	var normal, faulting machine.Access
	var faults int
	k.Spawn(a, 0, "writer", func(t *Thread) {
		faulting = t.Store(va) // COW fault: un-merge + store
		normal = t.Store(va)   // private now: plain store
		faults = t.Faults
	})
	if err := k.World().Run(); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("faults = %d, want 1", faults)
	}
	if faulting.Latency <= normal.Latency {
		t.Errorf("COW store (%d cy) not slower than plain store (%d cy)",
			faulting.Latency, normal.Latency)
	}
	if a.SharesFrameWith(va, b, vb) {
		t.Fatal("store did not split page")
	}
}

// The attack's physical setup end-to-end: after a KSM merge, a flush by
// the spy and a reload by the trojan move the *same* cache line, even
// though each process uses its own virtual address.
func TestMergedPageSharesCacheLine(t *testing.T) {
	k := newKernel(t)
	trojan, spy := k.NewProcess("trojan"), k.NewProcess("spy")
	vt, vs := trojan.MustMmap(1), spy.MustMmap(1)
	fillPattern(t, trojan, vt, 0x99)
	fillPattern(t, spy, vs, 0x99)
	trojan.Madvise(vt, 1)
	spy.Madvise(vs, 1)
	k.KSM.Scan()

	var spyAccess machine.Access
	tr := k.Spawn(trojan, 1, "t", func(t *Thread) {
		t.Load(vt) // trojan warms the line in E
	})
	_ = tr
	k.Spawn(spy, 0, "s", func(t *Thread) {
		t.Advance(10000) // let the trojan go first
		spyAccess = t.Load(vs)
	})
	if err := k.World().Run(); err != nil {
		t.Fatal(err)
	}
	if spyAccess.Path != machine.PathLocalForward {
		t.Fatalf("spy path = %v, want LocalForward (same physical line)", spyAccess.Path)
	}
}

func TestKSMDaemon(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	va, vb := a.MustMmap(1), b.MustMmap(1)
	fillPattern(t, a, va, 0x77)
	fillPattern(t, b, vb, 0x77)
	a.Madvise(va, 1)
	b.Madvise(vb, 1)
	daemon := k.KSM.StartDaemon(1000)
	w := k.World()
	err := w.RunUntilDeadline(100000, func() bool { return a.SharesFrameWith(va, b, vb) })
	if err != nil {
		t.Fatal(err)
	}
	if !a.SharesFrameWith(va, b, vb) {
		t.Fatal("daemon never merged the pages")
	}
	w.StopThread(daemon)
	w.Drain()
}

func TestMaxPagesPerScanBounds(t *testing.T) {
	k := newKernel(t)
	a, b := k.NewProcess("a"), k.NewProcess("b")
	va, vb := a.MustMmap(4), b.MustMmap(4)
	for i := uint64(0); i < 4; i++ {
		fillPattern(t, a, va+i*PageSize, byte(i))
		fillPattern(t, b, vb+i*PageSize, byte(i))
	}
	a.Madvise(va, 4)
	b.Madvise(vb, 4)
	k.KSM.MaxPagesPerScan = 5 // sees a's 4 pages + b's first
	if n := k.KSM.Scan(); n != 1 {
		t.Fatalf("bounded scan merged %d, want 1", n)
	}
	k.KSM.MaxPagesPerScan = 0
	if n := k.KSM.Scan(); n != 3 {
		t.Fatalf("full scan merged %d more, want 3", n)
	}
}
