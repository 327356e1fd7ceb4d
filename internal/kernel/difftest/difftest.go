// Package difftest is the differential-correctness harness for the
// access-stream executor: it generates seeded random multi-thread
// traces, executes each trace once with a hand-written per-op loop (the
// oracle) and once through kernel.Thread.Exec, and asserts that the two
// runs are indistinguishable — identical per-access virtual times,
// identical machine state digest (which covers every cache line,
// directory record, per-line bookkeeping and the access statistics),
// and conserved operation counts. A failing trace can be shrunk to a
// minimal reproduction.
//
// The generated traces deliberately cover Exec's proof obligations:
// multi-page address pools (TLB and set-conflict pressure), shared
// read-only pages whose stores must take the COW faulting path (per-op
// fallback), mid-trace mmaps that bump the mapping epoch (stale
// translation re-resolution), zero-think operations (unfused advances),
// and multiple threads on distinct cores whose interleaving the fused
// advance must not perturb.
package difftest

import (
	"fmt"
	"math/rand"

	"coherentleak/internal/coherence"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// Op is one trace event of a thread.
type Op struct {
	// Grow, when set, is an untimed one-page Mmap by the thread's process
	// (a mapping-epoch bump); the access fields are ignored.
	Grow bool
	// Kind is the access type for non-Grow ops.
	Kind kernel.OpKind
	// Page indexes the thread's address pool: 0..Private-1 are the
	// process's private pages, Private..Private+Shared-1 the read-only
	// pages shared by every process.
	Page int
	// Off is the byte offset within the page (8-aligned).
	Off uint64
	// Think is the non-memory work after the access.
	Think sim.Cycles
}

// ThreadTrace is one thread's schedule.
type ThreadTrace struct {
	// Proc selects the owning process.
	Proc int
	// Core is the pinned global core; distinct per thread.
	Core int
	// Ops is the operation list.
	Ops []Op
	// Seg partitions Ops into the programs handed to Exec: segment i
	// covers Seg[i] consecutive ops. Grow ops always sit alone in a
	// segment. Sum(Seg) == len(Ops).
	Seg []int
}

// Trace is a complete differential test case.
type Trace struct {
	Seed     uint64
	Protocol coherence.Protocol
	// Prefetch enables the next-line prefetcher; Notify the E->M
	// LLC-notification mitigation (which flips the machine's llcTrust
	// path selection).
	Prefetch bool
	Notify   bool
	// Replacement selects the cache replacement policy by registry name
	// (empty = LRU). Both runs use the same policy; the service-path memo
	// is policy-independent (victim selection happens inside
	// cache.Insert, shared by both paths), and the corpus over every
	// protocol × policy combination is what proves that claim holds.
	Replacement string
	Procs       int
	Private     int // private pages per process
	Shared      int // read-only pages shared by all processes
	Threads     []ThreadTrace
}

// ops returns the total access-op count (Grow excluded).
func (tr *Trace) ops() uint64 {
	var n uint64
	for _, th := range tr.Threads {
		for _, op := range th.Ops {
			if !op.Grow {
				n++
			}
		}
	}
	return n
}

// clone deep-copies the trace so shrink candidates can be edited freely.
func (tr Trace) clone() Trace {
	out := tr
	out.Threads = make([]ThreadTrace, len(tr.Threads))
	for i, th := range tr.Threads {
		out.Threads[i] = th
		out.Threads[i].Ops = append([]Op(nil), th.Ops...)
		out.Threads[i].Seg = append([]int(nil), th.Seg...)
	}
	return out
}

// Generate returns the deterministic trace for (seed, proto). The shape
// knobs are drawn from the seed: process/thread/page counts, operation
// mix, think-time distribution and segmentation.
func Generate(seed uint64, proto coherence.Protocol) Trace {
	r := rand.New(rand.NewSource(int64(seed)))
	tr := Trace{
		Seed:     seed,
		Protocol: proto,
		Prefetch: r.Intn(4) == 0,
		Notify:   r.Intn(4) == 0,
		Procs:    1 + r.Intn(3),
		Private:  1 + r.Intn(4),
		Shared:   r.Intn(3),
	}
	nThreads := 1 + r.Intn(4)
	cores := r.Perm(12)[:nThreads]
	pool := tr.Private + tr.Shared
	for ti := 0; ti < nThreads; ti++ {
		th := ThreadTrace{Proc: r.Intn(tr.Procs), Core: cores[ti]}
		nops := r.Intn(120)
		for i := 0; i < nops; i++ {
			var op Op
			switch k := r.Intn(20); {
			case k < 1:
				op.Grow = true
			case k < 11:
				op.Kind = kernel.OpLoad
			case k < 17:
				op.Kind = kernel.OpStore
			default:
				op.Kind = kernel.OpFlush
			}
			if !op.Grow {
				op.Page = r.Intn(pool)
				op.Off = uint64(r.Intn(kernel.PageSize/8)) * 8
				if r.Intn(4) != 0 {
					op.Think = sim.Cycles(r.Intn(3000))
				}
			}
			th.Ops = append(th.Ops, op)
		}
		th.Seg = segment(r, th.Ops)
		tr.Threads = append(tr.Threads, th)
	}
	return tr
}

// segment partitions ops into random runs of 1..8, isolating Grow ops in
// their own segments.
func segment(r *rand.Rand, ops []Op) []int {
	var seg []int
	i := 0
	for i < len(ops) {
		if ops[i].Grow {
			seg = append(seg, 1)
			i++
			continue
		}
		n := 1 + r.Intn(8)
		j := i
		for j < len(ops) && j-i < n && !ops[j].Grow {
			j++
		}
		seg = append(seg, j-i)
		i = j
	}
	return seg
}

// Result is one run's outcome for a trace.
type Result struct {
	// Times[t][s] is thread t's virtual time after its segment s — the
	// cumulative sum of every latency and think up to that boundary, so
	// any per-access latency difference surfaces at the next boundary.
	Times [][]sim.Cycles
	// Digest is machine.StateDigest over the final machine state.
	Digest string
	// Stream is the kernel's executor statistics.
	Stream kernel.StreamStats
}

// RunRef executes tr in a fresh world with the oracle: each segment
// runs as RefLoop. It never calls Exec.
func RunRef(tr Trace) Result { return run(tr, false) }

// RunExec executes tr in a fresh world with each segment handed to
// kernel.Thread.Exec as one Program.
func RunExec(tr Trace) Result { return run(tr, true) }

// Access is one operation with its virtual address resolved.
type Access struct {
	Kind  kernel.OpKind
	VA    uint64
	Think sim.Cycles
}

// RefLoop is the hand-written loop that kernel.Thread.Exec must match
// bit for bit: per op, stop if a kill is pending, issue the thread's
// Load, Store or Flush, then advance by the think time when it is
// positive.
func RefLoop(kt *kernel.Thread, ops []Access) {
	for _, op := range ops {
		if kt.StopRequested() {
			return
		}
		switch op.Kind {
		case kernel.OpLoad:
			kt.Load(op.VA)
		case kernel.OpStore:
			kt.Store(op.VA)
		case kernel.OpFlush:
			kt.Flush(op.VA)
		}
		if op.Think > 0 {
			kt.Advance(op.Think)
		}
	}
}

// Compile resets prog and fills it with ops.
func Compile(prog *kernel.Program, ops []Access) {
	prog.Reset()
	for _, op := range ops {
		switch op.Kind {
		case kernel.OpLoad:
			prog.Load(op.VA, op.Think)
		case kernel.OpStore:
			prog.Store(op.VA, op.Think)
		case kernel.OpFlush:
			prog.Flush(op.VA, op.Think)
		}
	}
}

func run(tr Trace, exec bool) Result {
	w := sim.NewWorld(sim.Config{Seed: tr.Seed})
	cfg := machine.DefaultConfig()
	cfg.Protocol = tr.Protocol
	cfg.NextLinePrefetch = tr.Prefetch
	cfg.Mitigations.LLCNotifiedOfEToM = tr.Notify
	cfg.Replacement = tr.Replacement
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := machine.New(w, cfg)
	k := kernel.New(m, 0)

	procs := make([]*kernel.Process, tr.Procs)
	priv := make([]uint64, tr.Procs)
	for i := range procs {
		procs[i] = k.NewProcess(fmt.Sprintf("p%d", i))
		priv[i] = procs[i].MustMmap(tr.Private)
	}
	// shared[s][p] is process p's VA for shared page s (each process maps
	// the common frame at its own address).
	shared := make([][]uint64, tr.Shared)
	for s := range shared {
		vas, err := k.MapSharedReadOnly(procs...)
		if err != nil {
			panic(err)
		}
		shared[s] = vas
	}

	res := Result{Times: make([][]sim.Cycles, len(tr.Threads))}
	for ti := range tr.Threads {
		th := tr.Threads[ti]
		proc := procs[th.Proc]
		ti := ti
		k.Spawn(proc, th.Core, fmt.Sprintf("t%d", ti), func(kt *kernel.Thread) {
			prog := kernel.NewProgram(proc, 8)
			var seg []Access
			i := 0
			for _, n := range th.Seg {
				ops := th.Ops[i : i+n]
				i += n
				if ops[0].Grow {
					proc.MustMmap(1)
					res.Times[ti] = append(res.Times[ti], kt.Now())
					continue
				}
				seg = seg[:0]
				for _, op := range ops {
					var va uint64
					if op.Page < tr.Private {
						va = priv[th.Proc] + uint64(op.Page)*kernel.PageSize + op.Off
					} else {
						va = shared[op.Page-tr.Private][th.Proc] + op.Off
					}
					seg = append(seg, Access{Kind: op.Kind, VA: va, Think: op.Think})
				}
				if exec {
					Compile(prog, seg)
					kt.Exec(prog, nil)
				} else {
					RefLoop(kt, seg)
				}
				res.Times[ti] = append(res.Times[ti], kt.Now())
			}
		})
	}
	if err := w.Run(); err != nil {
		panic(err)
	}
	res.Digest = m.StateDigest()
	res.Stream = k.Stream
	return res
}

// Mismatch describes the first divergence between the two runs.
type Mismatch struct {
	Field  string
	Detail string
}

func (m *Mismatch) String() string { return m.Field + ": " + m.Detail }

// Compare runs tr with the hand-written loop and with Exec and returns
// the first divergence, or nil when the runs are indistinguishable.
func Compare(tr Trace) *Mismatch {
	rr := RunRef(tr)
	re := RunExec(tr)

	if rr.Stream != (kernel.StreamStats{}) {
		return &Mismatch{"ref-stream", fmt.Sprintf(
			"hand-written loop touched the executor statistics: %+v", rr.Stream)}
	}
	n := tr.ops()
	if got := re.Stream.CompiledOps + re.Stream.UnfusedOps + re.Stream.InterpOps; got != n {
		return &Mismatch{"exec-conservation", fmt.Sprintf(
			"Exec accounted %d ops (compiled %d + unfused %d + interp %d), want %d",
			got, re.Stream.CompiledOps, re.Stream.UnfusedOps, re.Stream.InterpOps, n)}
	}
	for t := range rr.Times {
		a, b := rr.Times[t], re.Times[t]
		if len(a) != len(b) {
			return &Mismatch{"times", fmt.Sprintf("thread %d: %d vs %d segment boundaries", t, len(a), len(b))}
		}
		for s := range a {
			if a[s] != b[s] {
				return &Mismatch{"times", fmt.Sprintf(
					"thread %d segment %d: loop at cycle %d, Exec at %d", t, s, a[s], b[s])}
			}
		}
	}
	if rr.Digest != re.Digest {
		return &Mismatch{"digest", fmt.Sprintf("loop %s != Exec %s", rr.Digest, re.Digest)}
	}
	return nil
}

// Shrink greedily minimizes a failing trace: it removes whole threads,
// then whole segments, then single operations, keeping each removal only
// when the mismatch persists. If tr does not fail Compare it is returned
// unchanged. The Compare budget bounds worst-case shrink time.
func Shrink(tr Trace) Trace {
	if Compare(tr) == nil {
		return tr
	}
	best := tr.clone()
	budget := 300

	try := func(cand Trace) bool {
		if budget <= 0 {
			return false
		}
		budget--
		if Compare(cand) != nil {
			best = cand
			return true
		}
		return false
	}

	// Whole threads.
	for changed := true; changed; {
		changed = false
		for t := 0; t < len(best.Threads) && len(best.Threads) > 1; t++ {
			cand := best.clone()
			cand.Threads = append(cand.Threads[:t], cand.Threads[t+1:]...)
			if try(cand) {
				changed = true
				break
			}
		}
	}

	// Whole segments.
	for changed := true; changed; {
		changed = false
		for t := range best.Threads {
			off := 0
			for s := 0; s < len(best.Threads[t].Seg); s++ {
				n := best.Threads[t].Seg[s]
				cand := best.clone()
				th := &cand.Threads[t]
				th.Ops = append(th.Ops[:off], th.Ops[off+n:]...)
				th.Seg = append(th.Seg[:s], th.Seg[s+1:]...)
				if try(cand) {
					changed = true
					break
				}
				off += n
			}
			if changed {
				break
			}
		}
	}

	// Single operations.
	for changed := true; changed; {
		changed = false
		for t := range best.Threads {
			off := 0
			for s := 0; s < len(best.Threads[t].Seg); s++ {
				n := best.Threads[t].Seg[s]
				for i := 0; i < n; i++ {
					cand := best.clone()
					th := &cand.Threads[t]
					th.Ops = append(th.Ops[:off+i], th.Ops[off+i+1:]...)
					if n == 1 {
						th.Seg = append(th.Seg[:s], th.Seg[s+1:]...)
					} else {
						th.Seg[s]--
					}
					if try(cand) {
						changed = true
						break
					}
				}
				if changed {
					break
				}
				off += n
			}
			if changed {
				break
			}
		}
	}
	return best
}
