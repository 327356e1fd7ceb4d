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

// Frame is a physical page frame number; frame f covers physical
// addresses [f*PageSize, (f+1)*PageSize). Frame 0 is never allocated,
// so the zero Frame names no frame.
type Frame uint64

// Base returns the first physical address of the frame.
func (f Frame) Base() uint64 { return uint64(f) * PageSize }

// FrameOf returns the frame containing physical address addr.
func FrameOf(addr uint64) Frame { return Frame(addr / PageSize) }

// frameRec is one frame's bookkeeping. The table of them holds no
// pointers, so the garbage collector never scans it, and allocating a
// frame costs no heap object.
type frameRec struct {
	// refs counts page-table mappings; 0 means the frame is free.
	// Frames with refs > 1 are necessarily mapped read-only (COW).
	refs int32
	// written marks a frame whose contents live in Memory.data.
	written bool
	// merged marks the surviving copy of a KSM merge.
	merged bool
}

// Memory is the physical memory: a bump-pointer frame allocator with a
// free list. The bump pointer and the free list keep frame numbers
// dense, so the frame table is a slice indexed by frame number.
type Memory struct {
	// frames[f] is frame f's record; frame 0 is never allocated.
	frames []frameRec
	free   []Frame
	// data holds the contents of the frames that were written; a frame
	// never written reads as zeros.
	data map[Frame]*[PageSize]byte

	// TotalFrames bounds allocation; zero means unbounded.
	TotalFrames int

	// Allocated counts live frames (for leak assertions in tests).
	Allocated int
}

// New returns an empty physical memory with capacity totalFrames
// (0 = unbounded).
func New(totalFrames int) *Memory {
	return &Memory{
		frames:      make([]frameRec, 1), // frame 0 reserved so physical address 0 stays invalid
		TotalFrames: totalFrames,
	}
}

// Alloc returns a fresh zeroed frame with a single reference.
func (m *Memory) Alloc() (Frame, error) {
	if m.TotalFrames > 0 && m.Allocated >= m.TotalFrames {
		return 0, fmt.Errorf("mem: out of physical frames (%d in use)", m.Allocated)
	}
	f := Frame(len(m.frames))
	if n := len(m.free); n > 0 {
		f = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		m.frames = append(m.frames, frameRec{})
	}
	m.frames[f].refs = 1
	m.Allocated++
	return f, nil
}

// live returns f's record, panicking unless f is allocated. The pointer
// is into a growable table: use it before the next Alloc.
func (m *Memory) live(f Frame) *frameRec {
	if f >= Frame(len(m.frames)) || m.frames[f].refs <= 0 {
		panic(fmt.Sprintf("mem: frame %d is not live", f))
	}
	return &m.frames[f]
}

// Refs returns f's mapping count, 0 when f is not allocated.
func (m *Memory) Refs(f Frame) int {
	if f >= Frame(len(m.frames)) {
		return 0
	}
	return int(m.frames[f].refs)
}

// AddRef adds a page-table reference to f (COW sharing, KSM merge).
func (m *Memory) AddRef(f Frame) { m.live(f).refs++ }

// Release drops one reference; the frame is freed, and its contents
// dropped, when the count hits zero. Releasing a frame with zero
// references is a bug and panics.
func (m *Memory) Release(f Frame) {
	r := m.live(f)
	r.refs--
	if r.refs == 0 {
		if r.written {
			delete(m.data, f)
		}
		*r = frameRec{}
		m.free = append(m.free, f)
		m.Allocated--
	}
}

// MergedByKSM reports whether f is the surviving copy of a KSM merge
// (false when f is not allocated).
func (m *Memory) MergedByKSM(f Frame) bool {
	return f < Frame(len(m.frames)) && m.frames[f].merged
}

// SetMergedByKSM marks or clears f as the surviving copy of a KSM merge.
func (m *Memory) SetMergedByKSM(f Frame, merged bool) { m.live(f).merged = merged }

// Data returns f's contents for reading and writing, allocating zeroed
// storage on first use.
func (m *Memory) Data(f Frame) []byte {
	r := m.live(f)
	if !r.written {
		if m.data == nil {
			m.data = make(map[Frame]*[PageSize]byte)
		}
		m.data[f] = new([PageSize]byte)
		r.written = true
	}
	return m.data[f][:]
}

// contents returns f's bytes, or nil for a never-written (zero) frame.
func (m *Memory) contents(f Frame) []byte {
	if !m.live(f).written {
		return nil
	}
	return m.data[f][:]
}

// ContentHash returns a 64-bit FNV-1a hash of f's contents. An all-zero
// (never-written) page hashes equal to an explicit zero page.
func (m *Memory) ContentHash(f Frame) uint64 {
	h := fnv.New64a()
	if d := m.contents(f); d != nil {
		h.Write(d)
	} else {
		var zero [PageSize]byte
		h.Write(zero[:])
	}
	return h.Sum64()
}

// SameContents reports whether two frames hold identical bytes.
func (m *Memory) SameContents(f, g Frame) bool {
	fd, gd := m.contents(f), m.contents(g)
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

// CopyFrame allocates a new frame holding a copy of src's contents (the
// COW break path).
func (m *Memory) CopyFrame(src Frame) (Frame, error) {
	dst, err := m.Alloc()
	if err != nil {
		return 0, err
	}
	if d := m.contents(src); d != nil {
		copy(m.Data(dst), d)
	}
	return dst, nil
}

// LiveFrames returns all live frames in ascending order (test helper).
func (m *Memory) LiveFrames() []Frame {
	out := make([]Frame, 0, m.Allocated)
	for f, r := range m.frames {
		if r.refs > 0 {
			out = append(out, Frame(f))
		}
	}
	return out
}
