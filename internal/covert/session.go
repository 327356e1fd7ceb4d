package covert

import (
	"fmt"

	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// SharingMode selects how the trojan and spy obtain a shared physical
// page (§IV).
type SharingMode uint8

const (
	// ShareKSM: both processes write an identical pseudo-random pattern
	// into private MERGEABLE pages and the kernel's same-page merging
	// deduplicates them — the broader adversary model.
	ShareKSM SharingMode = iota
	// ShareExplicit: a read-only physical page is mapped into both
	// address spaces directly (shared library code/data, the prior-work
	// model).
	ShareExplicit
)

func (m SharingMode) String() string {
	if m == ShareKSM {
		return "ksm"
	}
	return "explicit"
}

// Session is a constructed attack environment: the simulated machine, the
// OS, the trojan and spy processes, and their shared block B.
type Session struct {
	World *sim.World
	Mach  *machine.Machine
	Kern  *kernel.Kernel

	TrojanProc *kernel.Process
	SpyProc    *kernel.Process

	// TrojanVA and SpyVA are each side's virtual address of the shared
	// block B (one cache line inside the shared page).
	TrojanVA uint64
	SpyVA    uint64
	// SpareTrojanVA / SpareSpyVA address the spare shared page created
	// up-front so a third-party merge collision never forces re-invoking
	// KSM (§VII-A). Zero in explicit mode.
	SpareTrojanVA uint64
	SpareSpyVA    uint64

	// SpyCore is the spy thread's core (socket 0 by construction).
	SpyCore int
	// LocalCores are trojan worker cores on the spy's socket.
	LocalCores [2]int
	// RemoteCores are trojan worker cores on the other socket; valid
	// only when HasRemote.
	RemoteCores [2]int
	// HasRemote reports whether the machine has a second socket.
	HasRemote bool

	// Mode records how the shared page was created.
	Mode SharingMode

	// OSNoiseProb is the probability per 1000 cycles that a trojan
	// worker is interrupted (IRQ / kernel housekeeping / involuntary
	// switch) for OSNoiseCycles. An interrupted worker misses reload
	// windows, which the spy sees as out-of-band samples; whether a
	// burst actually costs a window depends on how much slack the
	// channel's sampling interval leaves, so slow (rate-adapted)
	// configurations absorb bursts that wreck fast ones. The default is
	// zero: trojan and spy threads are pinned to dedicated cores
	// (sched_setaffinity), so on a lightly loaded machine they are
	// essentially never descheduled. The noise package raises it when
	// co-located workloads oversubscribe the cores (Figure 9).
	OSNoiseProb float64
	// OSNoiseCycles is the preemption duration.
	OSNoiseCycles sim.Cycles
	// osRand drives preemption draws, split per worker.
	osRand *sim.Rand
}

// PagePattern fills buf with the deterministic pseudo-random pattern both
// sides agree on ahead of time (§VII-A: "a deterministic, pseudo-random
// number generator function that begins with the same seed").
func PagePattern(seed uint64, buf []byte) {
	r := sim.NewRand(seed)
	for i := 0; i < len(buf); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(buf); j++ {
			buf[i+j] = byte(v >> (8 * uint(j)))
		}
	}
}

// NewSession builds the attack environment on a fresh world.
// patternSeed seeds the agreed page contents in KSM mode.
func NewSession(cfg machine.Config, worldSeed, patternSeed uint64, mode SharingMode) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CoresPerSocket < 3 {
		return nil, fmt.Errorf("covert: need >= 3 cores on the spy's socket (spy + 2 local trojan threads), have %d", cfg.CoresPerSocket)
	}
	s := newSession(cfg, worldSeed)
	s.Mode = mode
	switch mode {
	case ShareExplicit:
		vas, err := s.Kern.MapShared(false, s.TrojanProc, s.SpyProc)
		if err != nil {
			return nil, err
		}
		s.TrojanVA, s.SpyVA = vas[0], vas[1]
	case ShareKSM:
		if err := s.setupKSM(patternSeed); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("covert: unknown sharing mode %d", mode)
	}
	return s, nil
}

// newSession builds the world, machine, kernel and the trojan and spy
// processes of a validated configuration, with no shared page yet.
func newSession(cfg machine.Config, worldSeed uint64) *Session {
	w := sim.NewWorld(sim.Config{Seed: worldSeed})
	m := machine.New(w, cfg)
	k := kernel.New(m, 0)
	s := &Session{
		World:         w,
		Mach:          m,
		Kern:          k,
		TrojanProc:    k.NewProcess("trojan"),
		SpyProc:       k.NewProcess("spy"),
		SpyCore:       0,
		LocalCores:    [2]int{1, 2},
		HasRemote:     cfg.Sockets >= 2,
		OSNoiseCycles: 1500,
		osRand:        w.Rand().Split(),
	}
	if s.HasRemote {
		base := cfg.CoresPerSocket // first core of socket 1
		s.RemoteCores = [2]int{base, base + 1}
	}
	return s
}

// setupKSM creates the shared page the broader-adversary way: identical
// contents, madvise, merge scan, plus a spare page (§VII-A).
func (s *Session) setupKSM(patternSeed uint64) error {
	pattern := make([]byte, kernel.PageSize)
	sparePattern := make([]byte, kernel.PageSize)
	PagePattern(patternSeed, pattern)
	PagePattern(patternSeed^0xdeadbeefcafef00d, sparePattern)

	tva, err := s.TrojanProc.Mmap(2)
	if err != nil {
		return err
	}
	sva, err := s.SpyProc.Mmap(2)
	if err != nil {
		return err
	}
	for _, fill := range []struct {
		p    *kernel.Process
		va   uint64
		data []byte
	}{
		{s.TrojanProc, tva, pattern},
		{s.TrojanProc, tva + kernel.PageSize, sparePattern},
		{s.SpyProc, sva, pattern},
		{s.SpyProc, sva + kernel.PageSize, sparePattern},
	} {
		if err := fill.p.WriteBytes(fill.va, fill.data); err != nil {
			return err
		}
	}
	if err := s.TrojanProc.Madvise(tva, 2); err != nil {
		return err
	}
	if err := s.SpyProc.Madvise(sva, 2); err != nil {
		return err
	}
	s.Kern.KSM.Scan()
	if !s.TrojanProc.SharesFrameWith(tva, s.SpyProc, sva) {
		return fmt.Errorf("covert: KSM did not merge the agreed pages")
	}
	s.TrojanVA, s.SpyVA = tva, sva
	s.SpareTrojanVA, s.SpareSpyVA = tva+kernel.PageSize, sva+kernel.PageSize
	return nil
}

// SwitchToSpare retargets the channel at the spare shared page — the
// §VII-A response to detecting an external process merged into the
// primary page. It reports whether a spare was available.
func (s *Session) SwitchToSpare() bool {
	if s.SpareTrojanVA == 0 {
		return false
	}
	if !s.TrojanProc.SharesFrameWith(s.SpareTrojanVA, s.SpyProc, s.SpareSpyVA) {
		return false
	}
	s.TrojanVA, s.SpyVA = s.SpareTrojanVA, s.SpareSpyVA
	s.SpareTrojanVA, s.SpareSpyVA = 0, 0
	return true
}

// SharedPA returns the physical address of block B.
func (s *Session) SharedPA() uint64 {
	pa, err := s.SpyProc.Translate(s.SpyVA)
	if err != nil {
		panic(err)
	}
	return pa
}

// ExternallyShared reports whether a process other than the trojan and
// spy maps B's frame — the trial-communication collision the paper checks
// for before transmitting (§IV). (The timing-based detection the paper
// uses amounts to the same census; the frame refcount is the simulator's
// ground truth for it.)
func (s *Session) ExternallyShared() bool {
	pte := s.SpyProc.PTEOf(s.SpyVA)
	return pte.Mapped() && s.Kern.Memory().Refs(pte.Frame) > 2
}

// Supports reports whether the machine can host the scenario (remote
// placements need a second socket).
func (s *Session) Supports(sc Scenario) bool {
	if s.HasRemote {
		return true
	}
	return sc.Comm.Loc == Local && sc.Bound.Loc == Local
}

// workerCores returns the trojan worker cores serving a location.
func (s *Session) workerCores(loc Location) [2]int {
	if loc == Local {
		return s.LocalCores
	}
	return s.RemoteCores
}

// maybePreempt applies one OS-scheduler interruption draw covering gap
// cycles of a worker's polling loop, returning true if it fired. The
// per-draw probability scales with the time covered so the interruption
// process is a rate, independent of how often the worker polls.
func (s *Session) maybePreempt(kt *kernel.Thread, rng *sim.Rand, gap sim.Cycles) bool {
	if s.OSNoiseProb <= 0 {
		return false
	}
	p := s.OSNoiseProb * float64(gap) / 1000
	if !rng.Bool(p) {
		return false
	}
	// Burst durations vary between half and 1.5x the nominal cost
	// (interrupt handlers are quick; kernel housekeeping is not).
	d := s.OSNoiseCycles/2 + sim.Cycles(rng.Uint64n(uint64(s.OSNoiseCycles)))
	kt.Preempt(d)
	return true
}

// WorkerRand returns a fresh deterministic stream for a worker's
// preemption draws.
func (s *Session) WorkerRand() *sim.Rand { return s.osRand.Split() }
