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

// PTE is a page-table entry. The zero PTE (Frame 0) maps nothing.
type PTE struct {
	Frame mem.Frame
	// Writable: a store to a non-writable mapping raises a COW fault.
	Writable bool
	// Mergeable marks the page as advised for KSM.
	Mergeable bool
}

// Mapped reports whether the entry maps a frame.
func (e PTE) Mapped() bool { return e.Frame != 0 }

// Process is a simulated OS process: a virtual address space and an
// owning kernel. Processes are scheduling containers only; execution
// belongs to Threads.
type Process struct {
	PID  int
	Name string
	// Start is the virtual time the process was created; KSM scans
	// address spaces in start order (earliest first, §IV).
	Start sim.Cycles

	kern *Kernel
	// pages[i] maps virtual page base+i, or is the zero PTE once
	// unmapped. Pages are only ever mapped at the break, which only
	// grows, so the table is dense and base+len(pages) is the next free
	// virtual page number. The table holds values, not pointers, so
	// mapping a page allocates only when the table grows; a *PTE into it
	// is valid only until the next append (Mmap, MapShared) and never
	// leaves the package.
	base  uint64
	pages []PTE
}

// pte returns the entry mapping virtual page vp, or nil when vp is not
// mapped.
func (p *Process) pte(vp uint64) *PTE {
	if i := vp - p.base; i < uint64(len(p.pages)) && p.pages[i].Mapped() {
		return &p.pages[i]
	}
	return nil
}

// brk returns the next free virtual page number.
func (p *Process) brk() uint64 { return p.base + uint64(len(p.pages)) }

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
		// Leave virtual page 0 unmapped so address 0 faults, and give
		// each process a distinct base so stray cross-process address
		// reuse is caught.
		base: uint64(k.nextPID) << 20,
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
	basePage, mapped := p.brk(), len(p.pages)
	for i := 0; i < npages; i++ {
		f, err := p.kern.mem.Alloc()
		if err != nil {
			// Roll back what we mapped so far.
			for _, pte := range p.pages[mapped:] {
				p.kern.mem.Release(pte.Frame)
			}
			p.pages = p.pages[:mapped]
			return 0, err
		}
		p.pages = append(p.pages, PTE{Frame: f, Writable: true})
	}
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
		if p.pte(base+i) == nil {
			return fmt.Errorf("kernel: munmap of unmapped page %#x", (base+i)*PageSize)
		}
	}
	for vp := base; vp < base+uint64(npages); vp++ {
		p.kern.mem.Release(p.pte(vp).Frame)
		p.pages[vp-p.base] = PTE{}
	}
	p.kern.mapEpoch++
	return nil
}

// Exit tears down the process's address space, releasing frames in
// ascending page order. Threads of the process are not tracked here;
// callers stop them first (the simulator's processes are scheduling
// containers only).
func (p *Process) Exit() {
	for i, pte := range p.pages {
		if pte.Mapped() {
			p.kern.mem.Release(pte.Frame)
			p.pages[i] = PTE{}
		}
	}
	p.kern.mapEpoch++
}

// Madvise marks npages starting at va as MERGEABLE, making them KSM
// candidates (the madvise() call of §VII-A).
func (p *Process) Madvise(va uint64, npages int) error {
	for i := 0; i < npages; i++ {
		pte := p.pte(va/PageSize + uint64(i))
		if pte == nil {
			return fmt.Errorf("kernel: madvise on unmapped page %#x", va+uint64(i)*PageSize)
		}
		pte.Mergeable = true
	}
	return nil
}

// PTEOf returns a copy of the page-table entry covering va; it is the
// zero PTE (not Mapped) when va is unmapped.
func (p *Process) PTEOf(va uint64) PTE {
	if pte := p.pte(va / PageSize); pte != nil {
		return *pte
	}
	return PTE{}
}

// Pages returns the process's mapped virtual page numbers in ascending
// order (for reverse-mapping walks by OS-level defenses).
func (p *Process) Pages() []uint64 {
	var out []uint64
	for i, pte := range p.pages {
		if pte.Mapped() {
			out = append(out, p.base+uint64(i))
		}
	}
	return out
}

// Translate returns the physical address for va.
func (p *Process) Translate(va uint64) (uint64, error) {
	pte := p.pte(va / PageSize)
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
		pte := p.pte(va / PageSize)
		if pte == nil {
			return fmt.Errorf("kernel: segfault writing %#x", va)
		}
		if !pte.Writable {
			if err := p.kern.cowBreak(pte); err != nil {
				return err
			}
		}
		off := va % PageSize
		n := copy(p.kern.mem.Data(pte.Frame)[off:], data)
		data = data[n:]
		va += uint64(n)
	}
	return nil
}

// ReadBytes copies n bytes of process memory starting at va.
func (p *Process) ReadBytes(va uint64, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for n > 0 {
		pte := p.pte(va / PageSize)
		if pte == nil {
			return nil, fmt.Errorf("kernel: segfault reading %#x", va)
		}
		off := va % PageSize
		chunk := PageSize - off
		if uint64(n) < chunk {
			chunk = uint64(n)
		}
		out = append(out, p.kern.mem.Data(pte.Frame)[off:off+chunk]...)
		n -= int(chunk)
		va += chunk
	}
	return out, nil
}

// MapShared maps one fresh physical page into every process in procs,
// returning each process's virtual address for it. Read-only, it models
// the paper's *explicit* sharing path — read-only physical pages holding
// shared library code or data (§IV) — as opposed to the implicit KSM
// path. Writable, it models the shm/MAP_SHARED path: stores hit the
// common frame directly (no copy-on-write break), so a writer's cache
// line turns Modified while every mapper still names the same physical
// line — the precondition for the dirty-state (writeback-latency)
// channel.
func (k *Kernel) MapShared(writable bool, procs ...*Process) ([]uint64, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("kernel: shared mapping needs at least one process")
	}
	frame, err := k.mem.Alloc()
	if err != nil {
		return nil, err
	}
	vas := make([]uint64, len(procs))
	for i, p := range procs {
		if i > 0 {
			k.mem.AddRef(frame)
		}
		vas[i] = p.brk() * PageSize
		p.pages = append(p.pages, PTE{Frame: frame, Writable: writable})
	}
	k.mapEpoch++
	return vas, nil
}

// SharesFrameWith reports whether two processes map the same physical
// frame at the given virtual addresses — the attack precondition.
func (p *Process) SharesFrameWith(va uint64, q *Process, qva uint64) bool {
	a, b := p.PTEOf(va), q.PTEOf(qva)
	return a.Mapped() && a.Frame == b.Frame
}

// cowBreak gives pte's mapping a private writable copy of its frame. It
// never grows a page table, so pte stays valid across the call.
func (k *Kernel) cowBreak(pte *PTE) error {
	k.mapEpoch++
	if k.mem.Refs(pte.Frame) == 1 {
		// Sole mapper: just restore write permission.
		pte.Writable = true
		k.mem.SetMergedByKSM(pte.Frame, false)
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

// pageRef names one page-table entry by process and index, so it stays
// valid when the table grows.
type pageRef struct {
	proc *Process
	i    int
}

// pte returns the entry r names; use it before the next append.
func (r pageRef) pte() *PTE { return &r.proc.pages[r.i] }

// mergeCandidates returns every mergeable mapping, in process start
// order then ascending page order — the deterministic scan order KSM
// uses.
func (k *Kernel) mergeCandidates() []pageRef {
	var out []pageRef
	procs := k.Processes()
	sort.SliceStable(procs, func(i, j int) bool { return procs[i].Start < procs[j].Start })
	for _, p := range procs {
		for i, pte := range p.pages {
			if pte.Mapped() && pte.Mergeable {
				out = append(out, pageRef{p, i})
			}
		}
	}
	return out
}
