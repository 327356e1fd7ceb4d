// Package noise provides the co-located background workload of §VIII-C:
// a kernel-build-like (kcbench) multi-threaded job that stresses the
// memory hierarchy. Its threads cycle through the phases of a compile
// job — source scanning (streaming reads), compilation (mixed
// read/write over a working set), and linking (large writes) — evicting
// victim cache lines and loading the L2–LLC and inter-socket links,
// which is exactly how the paper's noise degrades the covert channel:
// "kernel-build processes saturate the internal bus (L2-LLC)
// bandwidths" and perturb E-state load latencies.
package noise

import (
	"fmt"

	"coherentleak/internal/covert"
	"coherentleak/internal/kernel"
	"coherentleak/internal/sim"
)

// Config tunes the workload.
type Config struct {
	// Threads is the number of kernel-build worker threads (the paper
	// sweeps 1..8).
	Threads int
	// WorkingSetPages is each thread's compile-phase working set. The
	// default (2048 pages = 8 MB) makes a few threads pressure the LLC
	// noticeably and eight threads dwarf it, as kcbench does.
	WorkingSetPages int
	// OpsPerPhase is how many memory operations one phase issues before
	// the thread rotates to the next phase.
	OpsPerPhase int
	// ThinkCycles is the pause between operations (instruction work
	// between memory references).
	ThinkCycles sim.Cycles
	// Seed drives address selection.
	Seed uint64
}

// DefaultConfig returns a kcbench-like intensity.
func DefaultConfig(threads int) Config {
	return Config{
		Threads:         threads,
		WorkingSetPages: 2048,
		OpsPerPhase:     256,
		ThinkCycles:     24,
		Seed:            0xbeefcafe,
	}
}

// Workload is a running set of noise threads.
type Workload struct {
	cfg     Config
	proc    *kernel.Process
	threads []*kernel.Thread
	kern    *kernel.Kernel

	// Ops counts memory operations issued across all threads.
	Ops uint64
}

// phase is one stage of the simulated build job.
type phase uint8

const (
	phaseScan phase = iota // streaming reads over the whole set
	phaseCompile
	phaseLink
	phaseCount
)

// Attach spawns the workload's threads in kern, scheduling them across
// cores. When the machine has spare cores beyond the attack's (spy on 0,
// trojan workers on 1, 2 and the first two of socket 1), noise threads
// take those first; past that they double up — which is when a real
// scheduler would start preempting the pinned attack threads, so the
// caller should also raise the session's OS-noise probability (CoLocate
// does both).
func Attach(kern *kernel.Kernel, cfg Config) (*Workload, error) {
	if cfg.Threads < 0 {
		return nil, fmt.Errorf("noise: negative thread count")
	}
	w := &Workload{cfg: cfg, kern: kern, proc: kern.NewProcess("kernel-build")}
	if cfg.Threads == 0 {
		return w, nil
	}
	if cfg.WorkingSetPages <= 0 || cfg.OpsPerPhase <= 0 {
		return nil, fmt.Errorf("noise: non-positive working set or ops")
	}
	rng := sim.NewRand(cfg.Seed)
	cores := spreadCores(kern, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		va, err := w.proc.Mmap(cfg.WorkingSetPages)
		if err != nil {
			return nil, err
		}
		tRng := rng.Split()
		name := fmt.Sprintf("cc%d", i)
		th := kern.Spawn(w.proc, cores[i], name, func(kt *kernel.Thread) {
			w.run(kt, va, tRng)
		})
		w.threads = append(w.threads, th)
	}
	return w, nil
}

// spreadCores assigns noise threads to cores: spare cores first (3..5 on
// socket 0, 8..11 on socket 1 in the default topology), then wrapping
// over every core.
func spreadCores(kern *kernel.Kernel, n int) []int {
	total := kern.Machine().Cores()
	per := kern.Machine().Config().CoresPerSocket
	reserved := map[int]bool{0: true, 1: true, 2: true}
	if kern.Machine().Sockets() > 1 {
		reserved[per] = true
		reserved[per+1] = true
	}
	var spare []int
	for c := 0; c < total; c++ {
		if !reserved[c] {
			spare = append(spare, c)
		}
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		if i < len(spare) {
			out[i] = spare[i]
		} else {
			out[i] = (i - len(spare)) % total
		}
	}
	return out
}

// CoLocationPressure returns the interruption rate (probability per
// 1000 cycles) the attack threads suffer when `threads` noise workers
// share the machine: zero while spare cores absorb the noise, growing
// linearly once the cores are oversubscribed.
func CoLocationPressure(kern *kernel.Kernel, threads int) float64 {
	total := kern.Machine().Cores()
	spare := total - 5 // spy + 2 local + 2 remote attack threads
	if kern.Machine().Sockets() == 1 {
		spare = total - 3
	}
	over := threads - spare
	if over <= 0 {
		return 0
	}
	return 0.45 * float64(over)
}

// CoLocate runs `threads` default kernel-build workers beside a covert
// session and raises the session's OS-noise probability to the matching
// CoLocationPressure. With zero threads it leaves the session untouched:
// Attach would still create an (idle) process.
func CoLocate(s *covert.Session, threads int) error {
	if threads == 0 {
		return nil
	}
	if _, err := Attach(s.Kern, DefaultConfig(threads)); err != nil {
		return err
	}
	s.OSNoiseProb = CoLocationPressure(s.Kern, threads)
	return nil
}

// run is one thread's phase loop. A pre-pass flattens each phase's
// straight-line run of accesses into a Program — drawing the phase's
// addresses from the thread's private rng in exactly the order the
// hand-written loop did — and Exec drives it on the fused fast path.
// Address generation is untimed, so moving the draws into the pre-pass
// changes no simulated behaviour.
func (w *Workload) run(kt *kernel.Thread, base uint64, rng *sim.Rand) {
	setBytes := uint64(w.cfg.WorkingSetPages) * kernel.PageSize
	lines := setBytes / 64
	ph := phaseScan
	cursor := uint64(0)
	prog := kernel.NewProgram(w.proc, w.cfg.OpsPerPhase)
	for !kt.StopRequested() {
		prog.Reset()
		think := w.cfg.ThinkCycles
		for op := 0; op < w.cfg.OpsPerPhase; op++ {
			switch ph {
			case phaseScan:
				// Streaming read sweep: maximal eviction pressure.
				prog.Load(base+(cursor%lines)*64, think)
				cursor += 1
			case phaseCompile:
				// Random mixed accesses over a hot subset.
				off := rng.Uint64n(lines/4) * 64
				if rng.Bool(0.3) {
					prog.Store(base+off, think)
				} else {
					prog.Load(base+off, think)
				}
			case phaseLink:
				// Large sequential writes.
				prog.Store(base+(cursor%lines)*64, think)
				cursor += 8
			}
		}
		if kt.Exec(prog, &w.Ops) < prog.Len() {
			return
		}
		ph = (ph + 1) % phaseCount
	}
}

// Stop terminates all noise threads.
func (w *Workload) Stop() {
	for _, th := range w.threads {
		w.kern.World().StopThread(th.Sim)
	}
}

// Threads returns the running thread count.
func (w *Workload) Threads() int { return len(w.threads) }
