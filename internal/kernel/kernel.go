// Package kernel is the OS substrate above the simulated machine:
// processes with private virtual address spaces, demand-less page
// allocation, copy-on-write, madvise(MERGEABLE), and a Kernel Same-page
// Merging (KSM) scanner. It exists because the paper's broader adversary
// model (§IV) creates the trojan/spy shared physical page *implicitly*,
// by having both processes write identical bytes and letting KSM
// deduplicate them into one read-only COW frame.
package kernel

import (
	"fmt"
	"sort"

	"coherentleak/internal/machine"
	"coherentleak/internal/mem"
	"coherentleak/internal/sim"
)

// PageSize is the virtual/physical page size.
const PageSize = mem.PageSize

// PTE is a page-table entry.
type PTE struct {
	Frame *mem.Frame
	// Writable: a store to a non-writable mapping raises a COW fault.
	Writable bool
	// Mergeable marks the page as advised for KSM.
	Mergeable bool
}

// Process is a simulated OS process: a virtual address space and an
// owning kernel. Processes are scheduling containers only; execution
// belongs to Threads.
type Process struct {
	PID  int
	Name string
	// Start is the virtual time the process was created; KSM scans
	// address spaces in start order (earliest first, §IV).
	Start sim.Cycles

	kern  *Kernel
	pages map[uint64]*PTE // keyed by virtual page number
	brk   uint64          // next free virtual page number
}

// Kernel owns the machine, physical memory and the process table.
type Kernel struct {
	world *sim.World
	mach  *machine.Machine
	mem   *mem.Memory

	procs   []*Process
	nextPID int

	// KSM holds the same-page-merging configuration and statistics.
	KSM KSM

	// FaultLatency is the cycle cost of a COW page fault (trap, copy,
	// map). The default models a minor fault plus a 4 KB copy.
	FaultLatency sim.Cycles

	// Stream accumulates access-stream executor statistics (see stream.go).
	Stream StreamStats

	// mapEpoch counts virtual-to-physical mapping mutations across every
	// process: mmap/munmap/exit, explicit sharing, COW breaks and KSM
	// merges all bump it. Access-stream programs cache their
	// translations against it and re-resolve when it moves.
	mapEpoch uint64
}

// MappingEpoch returns the kernel-wide mapping mutation counter.
func (k *Kernel) MappingEpoch() uint64 { return k.mapEpoch }

// New returns a kernel managing mach, with physical memory of totalFrames
// (0 = unbounded).
func New(mach *machine.Machine, totalFrames int) *Kernel {
	k := &Kernel{
		world:        mach.World(),
		mach:         mach,
		mem:          mem.New(totalFrames),
		nextPID:      1,
		FaultLatency: 2400,
	}
	k.KSM.kern = k
	return k
}

// Machine returns the underlying simulated machine.
func (k *Kernel) Machine() *machine.Machine { return k.mach }

// Memory returns physical memory.
func (k *Kernel) Memory() *mem.Memory { return k.mem }

// World returns the simulation world.
func (k *Kernel) World() *sim.World { return k.world }

// NewProcess creates a process. Creation order defines KSM scan order.
func (k *Kernel) NewProcess(name string) *Process {
	p := &Process{
		PID:   k.nextPID,
		Name:  name,
		Start: k.world.Now(),
		kern:  k,
		pages: make(map[uint64]*PTE),
		// Leave virtual page 0 unmapped so address 0 faults, and give
		// each process a distinct base so stray cross-process address
		// reuse is caught.
		brk: uint64(k.nextPID) << 20,
	}
	k.nextPID++
	k.procs = append(k.procs, p)
	return p
}

// Processes returns the process table in creation order.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, len(k.procs))
	copy(out, k.procs)
	return out
}

// Mmap allocates npages fresh zeroed pages and returns the base virtual
// address (the alloc() of §VII-A).
func (p *Process) Mmap(npages int) (uint64, error) {
	if npages <= 0 {
		return 0, fmt.Errorf("kernel: mmap of %d pages", npages)
	}
	basePage := p.brk
	for i := 0; i < npages; i++ {
		f, err := p.kern.mem.Alloc()
		if err != nil {
			// Roll back what we mapped so far.
			for j := uint64(0); j < uint64(i); j++ {
				pte := p.pages[basePage+j]
				p.kern.mem.Release(pte.Frame)
				delete(p.pages, basePage+j)
			}
			return 0, err
		}
		p.pages[basePage+uint64(i)] = &PTE{Frame: f, Writable: true}
	}
	p.brk += uint64(npages)
	p.kern.mapEpoch++
	return basePage * PageSize, nil
}

// MustMmap is Mmap for tests and examples with unbounded memory.
func (p *Process) MustMmap(npages int) uint64 {
	va, err := p.Mmap(npages)
	if err != nil {
		panic(err)
	}
	return va
}

// Munmap unmaps npages starting at va, releasing the frame references.
// Merged (KSM) frames survive as long as any other mapping holds them.
func (p *Process) Munmap(va uint64, npages int) error {
	base := va / PageSize
	// Validate the whole range before touching anything.
	for i := uint64(0); i < uint64(npages); i++ {
		if p.pages[base+i] == nil {
			return fmt.Errorf("kernel: munmap of unmapped page %#x", (base+i)*PageSize)
		}
	}
	for i := uint64(0); i < uint64(npages); i++ {
		pte := p.pages[base+i]
		p.kern.mem.Release(pte.Frame)
		delete(p.pages, base+i)
	}
	p.kern.mapEpoch++
	return nil
}

// Exit tears down the process's address space. Threads of the process
// are not tracked here; callers stop them first (the simulator's
// processes are scheduling containers only).
func (p *Process) Exit() {
	for vp, pte := range p.pages {
		p.kern.mem.Release(pte.Frame)
		delete(p.pages, vp)
	}
	p.kern.mapEpoch++
}

// Madvise marks npages starting at va as MERGEABLE, making them KSM
// candidates (the madvise() call of §VII-A).
func (p *Process) Madvise(va uint64, npages int) error {
	for i := 0; i < npages; i++ {
		pte := p.pages[va/PageSize+uint64(i)]
		if pte == nil {
			return fmt.Errorf("kernel: madvise on unmapped page %#x", va+uint64(i)*PageSize)
		}
		pte.Mergeable = true
		pte.Frame.Mergeable = true
	}
	return nil
}

// PTEOf returns the page-table entry covering va, or nil.
func (p *Process) PTEOf(va uint64) *PTE { return p.pages[va/PageSize] }

// Pages returns the process's mapped virtual page numbers in ascending
// order (for reverse-mapping walks by OS-level defenses).
func (p *Process) Pages() []uint64 {
	out := make([]uint64, 0, len(p.pages))
	for vp := range p.pages {
		out = append(out, vp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Translate returns the physical address for va.
func (p *Process) Translate(va uint64) (uint64, error) {
	pte := p.pages[va/PageSize]
	if pte == nil {
		return 0, fmt.Errorf("kernel: segfault: pid %d has no mapping for %#x", p.PID, va)
	}
	return pte.Frame.Base() + va%PageSize, nil
}

// WriteBytes copies data into the process's memory starting at va. It is
// an untimed setup operation (loading the page with the agreed pattern);
// it honours COW, breaking shared frames exactly as a timed store would.
func (p *Process) WriteBytes(va uint64, data []byte) error {
	for len(data) > 0 {
		pte := p.pages[va/PageSize]
		if pte == nil {
			return fmt.Errorf("kernel: segfault writing %#x", va)
		}
		if !pte.Writable {
			if err := p.kern.cowBreak(p, va/PageSize, pte); err != nil {
				return err
			}
			pte = p.pages[va/PageSize]
		}
		off := va % PageSize
		n := copy(pte.Frame.Data()[off:], data)
		data = data[n:]
		va += uint64(n)
	}
	return nil
}

// ReadBytes copies n bytes of process memory starting at va.
func (p *Process) ReadBytes(va uint64, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for n > 0 {
		pte := p.pages[va/PageSize]
		if pte == nil {
			return nil, fmt.Errorf("kernel: segfault reading %#x", va)
		}
		off := va % PageSize
		chunk := PageSize - off
		if uint64(n) < chunk {
			chunk = uint64(n)
		}
		out = append(out, pte.Frame.Data()[off:off+chunk]...)
		n -= int(chunk)
		va += chunk
	}
	return out, nil
}

// MapSharedReadOnly maps one fresh physical page read-only into every
// process in procs, returning each process's virtual address for it. It
// models the paper's *explicit* sharing path — read-only physical pages
// holding shared library code or data (§IV) — as opposed to the implicit
// KSM path.
func (k *Kernel) MapSharedReadOnly(procs ...*Process) ([]uint64, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("kernel: shared mapping needs at least one process")
	}
	frame, err := k.mem.Alloc()
	if err != nil {
		return nil, err
	}
	vas := make([]uint64, len(procs))
	for i, p := range procs {
		vpage := p.brk
		p.brk++
		if i > 0 {
			k.mem.AddRef(frame)
		}
		p.pages[vpage] = &PTE{Frame: frame, Writable: false}
		vas[i] = vpage * PageSize
	}
	k.mapEpoch++
	return vas, nil
}

// MapSharedWritable maps one fresh physical page writable into every
// process in procs, returning each process's virtual address for it. It
// models the shm/MAP_SHARED sharing path: stores hit the common frame
// directly (no copy-on-write break), so a writer's cache line turns
// Modified while every mapper still names the same physical line — the
// precondition for the dirty-state (writeback-latency) channel.
func (k *Kernel) MapSharedWritable(procs ...*Process) ([]uint64, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("kernel: shared mapping needs at least one process")
	}
	frame, err := k.mem.Alloc()
	if err != nil {
		return nil, err
	}
	vas := make([]uint64, len(procs))
	for i, p := range procs {
		vpage := p.brk
		p.brk++
		if i > 0 {
			k.mem.AddRef(frame)
		}
		p.pages[vpage] = &PTE{Frame: frame, Writable: true}
		vas[i] = vpage * PageSize
	}
	k.mapEpoch++
	return vas, nil
}

// SharesFrameWith reports whether two processes map the same physical
// frame at the given virtual addresses — the attack precondition.
func (p *Process) SharesFrameWith(va uint64, q *Process, qva uint64) bool {
	a, b := p.pages[va/PageSize], q.pages[qva/PageSize]
	return a != nil && b != nil && a.Frame == b.Frame
}

// cowBreak gives proc a private writable copy of the frame behind vpage.
func (k *Kernel) cowBreak(proc *Process, vpage uint64, pte *PTE) error {
	k.mapEpoch++
	if pte.Frame.Refs() == 1 {
		// Sole mapper: just restore write permission.
		pte.Writable = true
		pte.Frame.MergedByKSM = false
		return nil
	}
	private, err := k.mem.CopyFrame(pte.Frame)
	if err != nil {
		return err
	}
	k.mem.Release(pte.Frame)
	pte.Frame = private
	pte.Writable = true
	k.KSM.Unmerged++
	return nil
}

// mergeCandidates returns every (process, vpage, pte) with a mergeable
// mapping, in process start order then vpage order — the deterministic
// scan order KSM uses.
func (k *Kernel) mergeCandidates() []candidate {
	var out []candidate
	procs := k.Processes()
	sort.SliceStable(procs, func(i, j int) bool { return procs[i].Start < procs[j].Start })
	for _, p := range procs {
		var vpages []uint64
		for vp, pte := range p.pages {
			if pte.Mergeable {
				vpages = append(vpages, vp)
			}
		}
		sort.Slice(vpages, func(i, j int) bool { return vpages[i] < vpages[j] })
		for _, vp := range vpages {
			out = append(out, candidate{proc: p, vpage: vp, pte: p.pages[vp]})
		}
	}
	return out
}

type candidate struct {
	proc  *Process
	vpage uint64
	pte   *PTE
}
