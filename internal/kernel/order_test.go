package kernel

import (
	"fmt"
	"testing"
)

// frameOrder returns the physical frame behind each of p's npages pages
// starting at va, in page order.
func frameOrder(t *testing.T, p *Process, va uint64, npages int) string {
	t.Helper()
	var out []uint64
	for i := 0; i < npages; i++ {
		pa, err := p.Translate(va + uint64(i)*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pa/PageSize)
	}
	return fmt.Sprint(out)
}

// assertOneOrder runs build runs times on fresh kernels and fails unless
// every run hands out the same frame order: frame numbers must never
// depend on Go's map iteration order.
func assertOneOrder(t *testing.T, runs int, build func(k *Kernel) string) {
	t.Helper()
	seen := map[string]int{}
	for i := 0; i < runs; i++ {
		seen[build(newKernel(t))]++
	}
	if len(seen) != 1 {
		t.Fatalf("%d distinct frame orders over %d identical runs: %v", len(seen), runs, seen)
	}
}

// TestExitReleasesFramesDeterministically: the frames a process frees on
// Exit go back on the allocator's LIFO free list, so their release order
// decides the frames the next Mmap gets.
func TestExitReleasesFramesDeterministically(t *testing.T) {
	assertOneOrder(t, 50, func(k *Kernel) string {
		p := k.NewProcess("p")
		p.MustMmap(8)
		p.Exit()
		q := k.NewProcess("q")
		return frameOrder(t, q, q.MustMmap(8), 8)
	})
}

// TestUnmergePageDeterministic: when one process maps a merged frame at
// two pages, the first mapping split gets the private copy and the last
// keeps the original frame, so the split order must be fixed.
func TestUnmergePageDeterministic(t *testing.T) {
	assertOneOrder(t, 50, func(k *Kernel) string {
		p := k.NewProcess("p")
		va := p.MustMmap(2)
		if err := p.Madvise(va, 2); err != nil {
			t.Fatal(err)
		}
		if k.KSM.Scan() != 1 {
			t.Fatal("setup: the two zero pages did not merge")
		}
		frame := p.PTEOf(va).Frame
		if split := k.KSM.UnmergePage(frame); split != 2 {
			t.Fatalf("UnmergePage split %d mappings, want 2", split)
		}
		return frameOrder(t, p, va, 2)
	})
}
