package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocReleaseLifecycle(t *testing.T) {
	m := New(0)
	f, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if m.Refs(f) != 1 {
		t.Fatalf("fresh frame refs = %d", m.Refs(f))
	}
	if f == 0 {
		t.Fatal("frame 0 must stay reserved")
	}
	if m.Allocated != 1 {
		t.Fatal("Allocated not tracked")
	}
	m.Release(f)
	if m.Allocated != 0 || m.Refs(f) != 0 {
		t.Fatal("release did not free")
	}
}

func TestReleaseDeadFramePanics(t *testing.T) {
	m := New(0)
	f, _ := m.Alloc()
	m.Release(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	m.Release(f)
}

func TestCapacityLimit(t *testing.T) {
	m := New(2)
	a, _ := m.Alloc()
	if _, err := m.Alloc(); err != nil {
		t.Fatal("second alloc failed under capacity 2")
	}
	if _, err := m.Alloc(); err == nil {
		t.Fatal("third alloc succeeded past capacity")
	}
	m.Release(a)
	if _, err := m.Alloc(); err != nil {
		t.Fatal("alloc after release failed")
	}
}

func TestFrameNumberReuse(t *testing.T) {
	m := New(0)
	f, _ := m.Alloc()
	m.Release(f)
	g, _ := m.Alloc()
	if g != f {
		t.Fatalf("freed frame %d not reused (got %d)", f, g)
	}
}

func TestRefCounting(t *testing.T) {
	m := New(0)
	f, _ := m.Alloc()
	m.AddRef(f)
	m.AddRef(f)
	if m.Refs(f) != 3 {
		t.Fatalf("refs = %d, want 3", m.Refs(f))
	}
	m.Release(f)
	m.Release(f)
	if m.Refs(f) == 0 {
		t.Fatal("frame freed while referenced")
	}
	m.Release(f)
	if m.Refs(f) != 0 {
		t.Fatal("frame survives final release")
	}
}

// TestReleaseDropsFrameState: a freed frame's contents and KSM mark go
// with it, so the next allocation that reuses its number starts zeroed
// and unmerged; a freed frame has no contents to read.
func TestReleaseDropsFrameState(t *testing.T) {
	m := New(0)
	zero, _ := m.Alloc()
	f, _ := m.Alloc()
	copy(m.Data(f), []byte("secret"))
	m.SetMergedByKSM(f, true)
	m.Release(f)
	if m.MergedByKSM(f) {
		t.Fatal("freed frame still marked MergedByKSM")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Data of a freed frame did not panic")
			}
		}()
		m.Data(f)
	}()
	g, _ := m.Alloc()
	if g != f {
		t.Fatalf("freed frame %d not reused (got %d)", f, g)
	}
	if !m.SameContents(g, zero) || m.ContentHash(g) != m.ContentHash(zero) || m.MergedByKSM(g) {
		t.Fatal("reused frame kept its previous contents or KSM mark")
	}
}

func TestFrameOfAndBase(t *testing.T) {
	m := New(0)
	f, _ := m.Alloc()
	if FrameOf(f.Base()) != f || FrameOf(f.Base()+PageSize-1) != f {
		t.Fatal("FrameOf wrong inside frame")
	}
	if FrameOf(f.Base()+PageSize) == f {
		t.Fatal("FrameOf wrong past frame end")
	}
}

func TestContentHashZeroPage(t *testing.T) {
	m := New(0)
	a, _ := m.Alloc()
	b, _ := m.Alloc()
	if m.ContentHash(a) != m.ContentHash(b) {
		t.Fatal("two untouched pages hash differently")
	}
	// Forcing zero bytes explicitly must hash the same as untouched.
	_ = m.Data(b)
	if m.ContentHash(a) != m.ContentHash(b) {
		t.Fatal("explicit zero page hashes differently from untouched")
	}
	copy(m.Data(a), []byte("x"))
	if m.ContentHash(a) == m.ContentHash(b) {
		t.Fatal("distinct contents hash equal")
	}
}

func TestSameContents(t *testing.T) {
	m := New(0)
	a, _ := m.Alloc()
	b, _ := m.Alloc()
	if !m.SameContents(a, b) {
		t.Fatal("untouched pages differ")
	}
	copy(m.Data(a), []byte("hello"))
	if m.SameContents(a, b) {
		t.Fatal("written page equals zero page")
	}
	copy(m.Data(b), []byte("hello"))
	if !m.SameContents(a, b) {
		t.Fatal("identical pages differ")
	}
	// nil-vs-allocated-zero symmetry
	c, _ := m.Alloc()
	d, _ := m.Alloc()
	_ = m.Data(d)
	if !m.SameContents(c, d) || !m.SameContents(d, c) {
		t.Fatal("nil vs zeroed asymmetry")
	}
}

func TestCopyFrame(t *testing.T) {
	m := New(0)
	src, _ := m.Alloc()
	copy(m.Data(src), []byte("secret"))
	dst, err := m.CopyFrame(src)
	if err != nil {
		t.Fatal(err)
	}
	if !m.SameContents(src, dst) {
		t.Fatal("copy contents differ")
	}
	m.Data(dst)[0] = 'X'
	if m.SameContents(src, dst) {
		t.Fatal("copy aliases source")
	}
	if m.Refs(dst) != 1 {
		t.Fatal("copy refs wrong")
	}
}

// Property: ContentHash agrees with SameContents on equality.
func TestHashConsistentWithEquality(t *testing.T) {
	m := New(0)
	f := func(a, b []byte) bool {
		fa, _ := m.Alloc()
		fb, _ := m.Alloc()
		copy(m.Data(fa), a)
		copy(m.Data(fb), b)
		same := m.SameContents(fa, fb)
		hashEq := m.ContentHash(fa) == m.ContentHash(fb)
		m.Release(fa)
		m.Release(fb)
		if same && !hashEq {
			return false // equal contents must hash equal
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Allocated equals live frame count under arbitrary alloc /
// release interleavings.
func TestAllocatedInvariant(t *testing.T) {
	f := func(ops []bool) bool {
		m := New(0)
		var live []Frame
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				fr, err := m.Alloc()
				if err != nil {
					return false
				}
				live = append(live, fr)
			} else {
				fr := live[len(live)-1]
				live = live[:len(live)-1]
				m.Release(fr)
			}
			if m.Allocated != len(live) || len(m.LiveFrames()) != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
