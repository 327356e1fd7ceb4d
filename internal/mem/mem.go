// Package mem models physical memory: a frame allocator with reference
// counting (for copy-on-write and KSM page merging) and page contents.
// Contents matter only to the OS layer — KSM merges pages by comparing
// bytes — so they are stored per frame rather than flowing through the
// cache hierarchy.
package mem

import (
	"bytes"
	"fmt"
	"hash/fnv"
)

// PageSize is the physical page size in bytes.
const PageSize = 4096

// Frame is a physical page frame.
type Frame struct {
	// Number is the frame's index; the frame covers physical addresses
	// [Number*PageSize, (Number+1)*PageSize).
	Number uint64
	// refs counts page-table mappings of this frame. Frames with refs > 1
	// are necessarily mapped read-only (COW).
	refs int
	// data holds the page contents, allocated lazily on first write.
	data []byte
	// Mergeable marks the frame as advised for KSM merging by all mappers.
	Mergeable bool
	// MergedByKSM marks a frame that is the surviving copy of a KSM merge.
	MergedByKSM bool
}

// Refs returns the current mapping count.
func (f *Frame) Refs() int { return f.refs }

// Base returns the first physical address of the frame.
func (f *Frame) Base() uint64 { return f.Number * PageSize }

// Data returns the frame contents, allocating zeroed storage on first use.
func (f *Frame) Data() []byte {
	if f.data == nil {
		f.data = make([]byte, PageSize)
	}
	return f.data
}

// ContentHash returns a 64-bit FNV-1a hash of the page contents. An
// all-zero (never-written) page hashes equal to an explicit zero page.
func (f *Frame) ContentHash() uint64 {
	h := fnv.New64a()
	if f.data == nil {
		var zero [PageSize]byte
		h.Write(zero[:])
	} else {
		h.Write(f.data)
	}
	return h.Sum64()
}

// SameContents reports whether two frames hold identical bytes.
func (f *Frame) SameContents(g *Frame) bool {
	fd, gd := f.data, g.data
	switch {
	case fd == nil && gd == nil:
		return true
	case fd == nil:
		return isZero(gd)
	case gd == nil:
		return isZero(fd)
	default:
		return bytes.Equal(fd, gd)
	}
}

func isZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Memory is the physical memory: a bump-pointer frame allocator with a
// free list. The bump pointer and the free list keep frame numbers
// dense, so the frame table is a slice indexed by frame number.
type Memory struct {
	// frames[n] is live frame n, or nil; frame 0 is never allocated.
	frames []*Frame
	free   []uint64

	// TotalFrames bounds allocation; zero means unbounded.
	TotalFrames int

	// Allocated counts live frames (for leak assertions in tests).
	Allocated int
}

// New returns an empty physical memory with capacity totalFrames
// (0 = unbounded).
func New(totalFrames int) *Memory {
	return &Memory{
		frames:      []*Frame{nil}, // frame 0 reserved so physical address 0 stays invalid
		TotalFrames: totalFrames,
	}
}

// Alloc returns a fresh frame with a single reference.
func (m *Memory) Alloc() (*Frame, error) {
	if m.TotalFrames > 0 && m.Allocated >= m.TotalFrames {
		return nil, fmt.Errorf("mem: out of physical frames (%d in use)", m.Allocated)
	}
	num := uint64(len(m.frames))
	if n := len(m.free); n > 0 {
		num = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		m.frames = append(m.frames, nil)
	}
	f := &Frame{Number: num, refs: 1}
	m.frames[num] = f
	m.Allocated++
	return f, nil
}

// Get returns the frame with the given number, or nil.
func (m *Memory) Get(num uint64) *Frame {
	if num >= uint64(len(m.frames)) {
		return nil
	}
	return m.frames[num]
}

// FrameOf returns the frame containing physical address addr, or nil.
func (m *Memory) FrameOf(addr uint64) *Frame { return m.Get(addr / PageSize) }

// AddRef adds a page-table reference to f (COW sharing, KSM merge).
func (m *Memory) AddRef(f *Frame) { f.refs++ }

// Release drops one reference; the frame is freed when the count hits
// zero. Releasing a frame with zero references is a bug and panics.
func (m *Memory) Release(f *Frame) {
	if f.refs <= 0 {
		panic(fmt.Sprintf("mem: release of dead frame %d", f.Number))
	}
	f.refs--
	if f.refs == 0 {
		m.frames[f.Number] = nil
		m.free = append(m.free, f.Number)
		m.Allocated--
	}
}

// CopyFrame allocates a new frame holding a copy of src's contents (the
// COW break path).
func (m *Memory) CopyFrame(src *Frame) (*Frame, error) {
	dst, err := m.Alloc()
	if err != nil {
		return nil, err
	}
	if src.data != nil {
		copy(dst.Data(), src.data)
	}
	return dst, nil
}

// LiveFrames returns the numbers of all live frames in ascending order
// (test helper).
func (m *Memory) LiveFrames() []uint64 {
	out := make([]uint64, 0, m.Allocated)
	for n, f := range m.frames {
		if f != nil {
			out = append(out, uint64(n))
		}
	}
	return out
}
