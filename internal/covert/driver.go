package covert

import (
	"fmt"

	"coherentleak/internal/cache"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
	"coherentleak/internal/stats"
)

// The self-synchronised channels (the binary channel of Algorithms 1-2,
// on one line or several, and the 2-bit channel of §VIII-D) share one
// protocol and therefore one driver: the trojan's workers reload block B
// into the placement scheduled for the current spy period, and the spy
// flush-wait-reloads, polls for the preamble, receives until EndRun idle
// periods and decodes. A channel contributes only its codec: the period
// schedules, the classifier, the start and idle predicates, the decoder
// and the deadline.

// Sample is one timed load observed by the spy.
type Sample struct {
	// Cycle is the spy's clock after the load (rdtsc).
	Cycle sim.Cycles
	// Latency is the timed load's cost.
	Latency sim.Cycles
	// Class is the binary channel's band classification (the 2-bit
	// channel reports its symbols separately).
	Class Class
}

// slot is one spy period of a schedule: the placement block B must sit
// in, or an idle period (live false) in which the trojan leaves B alone.
type slot struct {
	pl   Placement
	live bool
}

// schedule is one lane's per-period plan: slot i governs spy period i
// (period = interval between consecutive spy invalidations). Periods past
// the end form the idle tail: the trojan stops reloading and the spy's
// samples go idle, terminating reception (Algorithm 2's N-consecutive
// rule).
type schedule []slot

// hold appends n periods of placement pl.
func (s schedule) hold(pl Placement, n int) schedule {
	for i := 0; i < n; i++ {
		s = append(s, slot{pl: pl, live: true})
	}
	return s
}

// pause appends n idle periods.
func (s schedule) pause(n int) schedule {
	for i := 0; i < n; i++ {
		s = append(s, slot{})
	}
	return s
}

// at returns the placement for period i; ok is false for an idle period
// and for the idle tail.
func (s schedule) at(i uint64) (pl Placement, ok bool) {
	if i >= uint64(len(s)) {
		return Placement{}, false
	}
	return s[i].pl, s[i].live
}

// setup is the run prologue's input, common to every channel.
type setup struct {
	cfg                    machine.Config
	mode                   SharingMode
	worldSeed, patternSeed uint64
	// sc is the scenario the machine must host; the 2-bit channel leaves
	// it zero (all local), having checked for a second socket itself.
	sc Scenario
	// bands, when non-nil, replaces calibration at BandMargin.
	bands  *Bands
	preRun func(*Session)
}

// codec is what a channel plugs into the driver.
type codec struct {
	// lanes holds one schedule per line of the shared page; lane i uses
	// the i-th line from B.
	lanes []schedule
	// local and remote are the trojan's worker counts per socket.
	local, remote int
	// ts is the spy's wait between invalidation and timed load.
	ts sim.Cycles
	// evictionSet, when non-nil, replaces the spy's clflush with a
	// traversal of B's LLC conflict set (one lane only); the trojan then
	// counts periods by invalidations rather than flushes.
	evictionSet []uint64
	// classify maps a timed load to a codec symbol. Polling ends on the
	// first lane-0 symbol start accepts; reception ends after endRun
	// consecutive measurements idle on every lane, or maxPeriods samples.
	// With labelled set the symbols are Class values and are kept in
	// each Sample's Class rather than in the reception's syms.
	classify    func(sim.Cycles) int
	labelled    bool
	start, idle func(int) bool
	endRun      int
	// keepSync records the polling phase's duration and keeps the start
	// measurement as the first sample (counted against maxPeriods).
	keepSync bool
	// decode turns a completed reception into the payload bits; a run
	// cut short by the deadline decodes nothing.
	decode func(*reception) []byte
	// deadline bounds the run and is the fused executor's horizon.
	deadline sim.Cycles
}

// reception is the spy's trace plus the run's scored outcome.
type reception struct {
	bands Bands
	// samples and syms hold each lane's timed loads and their symbols
	// (syms stays empty for a labelled codec).
	samples [][]Sample
	syms    [][]int
	synced  bool
	// syncCycles is the polling phase's duration (keepSync only).
	syncCycles sim.Cycles
	// start and end bracket the reception window.
	start, end sim.Cycles

	// Transmission is the scored outcome; its Samples are lane 0's.
	Transmission
	duration sim.Cycles
}

// checkBits rejects payload bits other than 0 and 1.
func checkBits(bits []byte) error {
	for i, b := range bits {
		if b > 1 {
			return fmt.Errorf("covert: bit %d has non-binary value %d", i, b)
		}
	}
	return nil
}

// laneVA returns the address of lane i's line given lane 0's address.
func laneVA(base uint64, lane int) uint64 { return base + uint64(lane)*cache.LineSize }

// transmit drives one transmission of bits: it builds the session,
// calibrates (or reuses bands), applies the PreRun hook, compiles the
// channel's codec against the session, runs trojan and spy to the spy's
// completion or the deadline, and scores the decoded payload.
func transmit(s setup, bits []byte, build func(*Session, Bands) (*codec, error)) (*reception, error) {
	if err := checkBits(bits); err != nil {
		return nil, err
	}
	sess, err := NewSession(s.cfg, s.worldSeed, s.patternSeed, s.mode)
	if err != nil {
		return nil, err
	}
	if !sess.Supports(s.sc) {
		return nil, fmt.Errorf("covert: machine cannot host scenario %s (no remote socket)", s.sc.Name())
	}
	var bands Bands
	if s.bands != nil {
		bands = *s.bands
	} else if bands, err = Calibrate(s.cfg, s.worldSeed+7777, 200, BandMargin); err != nil {
		return nil, err
	}
	if s.preRun != nil {
		s.preRun(sess)
	}
	c, err := build(sess, bands)
	if err != nil {
		return nil, err
	}

	tr := startTrojan(sess, c)
	r := &reception{bands: bands, samples: make([][]Sample, len(c.lanes)), syms: make([][]int, len(c.lanes))}
	done := false
	sess.Kern.Spawn(sess.SpyProc, sess.SpyCore, "spy", func(kt *kernel.Thread) {
		defer func() { done = true }()
		r.spy(kt, sess, c)
	})
	if err := sess.World.RunUntilDeadline(c.deadline, func() bool { return done }); err != nil {
		return nil, err
	}
	tr.stop()
	sess.World.Drain()

	r.TxBits = append([]byte(nil), bits...)
	r.Samples = r.samples[0]
	r.Accuracy = stats.Accuracy(bits, r.RxBits)
	if r.end > r.start {
		r.duration = r.end - r.start
		r.RawKbps = stats.Kbps(len(bits), s.cfg.CyclesToSeconds(r.duration))
	}
	return r, nil
}

// trojan is the transmit side: worker threads pinned to the cores of
// Table I that keep reloading each lane's line per its schedule.
type trojan struct {
	sess *Session
	// pollGap is the worker polling interval. It bounds how stale a
	// worker's view of the current period can be; reloads later than the
	// spy's timed load are the channel's intrinsic drift noise.
	pollGap sim.Cycles
	threads []*kernel.Thread
	stopped bool
}

// startTrojan spawns the codec's workers, local before remote in index
// order; they begin polling immediately.
//
// A worker derives lane i's period index from the line's invalidation
// count (epoch minus its value at start). A real trojan derives the same
// counter from its own reload misses (each spy period begins with
// exactly one flush or whole-set eviction, which invalidates the
// trojan's copy); the simulator exposes the per-line epoch as the
// idealized form of that observation. Clflush probing counts flushes
// only; eviction probing counts flushes plus inclusive-LLC
// back-invalidations.
func startTrojan(sess *Session, c *codec) *trojan {
	t := &trojan{sess: sess, pollGap: c.ts / 3}
	if t.pollGap < 24 {
		t.pollGap = 24
	}
	epoch := sess.Mach.FlushEpoch
	if c.evictionSet != nil {
		epoch = sess.Mach.InvalidationEpoch
	}
	pas := make([]uint64, len(c.lanes))
	bases := make([]uint64, len(c.lanes))
	periods := 0
	for lane, s := range c.lanes {
		pas[lane] = laneVA(sess.SharedPA(), lane)
		bases[lane] = epoch(pas[lane])
		periods = max(periods, len(s))
	}

	spawn := func(loc Location, idx int) {
		rng := sess.WorkerRand()
		th := sess.Kern.Spawn(sess.TrojanProc, sess.workerCores(loc)[idx], workerName(loc, idx), func(kt *kernel.Thread) {
			for !kt.StopRequested() && !t.stopped {
				// An interruption may fire here; after waking the worker
				// immediately polls (the scheduler runs it for at least
				// one quantum), so bursts do not chain.
				sess.maybePreempt(kt, rng, t.pollGap)
				scheduled := false
				for lane, s := range c.lanes {
					period := epoch(pas[lane]) - bases[lane]
					if period >= uint64(len(s)) {
						continue
					}
					scheduled = true
					// The second worker of a socket joins only Shared
					// placements (two sharers put the block in S).
					if pl, ok := s.at(period); ok && pl.Loc == loc && idx < pl.Threads() {
						kt.Load(laneVA(sess.TrojanVA, lane))
					}
				}
				// Idle tail on every lane: B is left alone so the spy
				// sees idle latencies and ends reception; the worker
				// exits once lane 0's tail has clearly passed.
				if !scheduled && epoch(pas[0])-bases[0] > uint64(periods)+64 {
					return
				}
				kt.Advance(t.pollGap)
			}
		})
		t.threads = append(t.threads, th)
	}
	for i := 0; i < c.local; i++ {
		spawn(Local, i)
	}
	for i := 0; i < c.remote; i++ {
		spawn(Remote, i)
	}
	return t
}

func workerName(loc Location, idx int) string {
	if loc == Local {
		return "worker-local" + string(rune('0'+idx))
	}
	return "worker-remote" + string(rune('0'+idx))
}

// stop asks all workers to exit.
func (t *trojan) stop() {
	t.stopped = true
	for _, th := range t.threads {
		t.sess.World.StopThread(th.Sim)
	}
}

// spy runs Algorithm 2 on the spy thread: poll for the start of
// transmission, record until the idle run, then decode. Each measurement
// invalidates every lane (clflush, or the conflict-set traversal), waits
// ts, then times a load of every lane.
func (r *reception) spy(kt *kernel.Thread, sess *Session, c *codec) {
	cur := make([]Sample, len(c.lanes))
	sym := make([]int, len(c.lanes))
	measure := func() {
		if c.evictionSet != nil {
			for _, va := range c.evictionSet {
				kt.Load(va)
			}
		} else {
			for lane := range cur {
				kt.Flush(laneVA(sess.SpyVA, lane))
			}
		}
		kt.Advance(c.ts)
		for lane := range cur {
			lat := kt.Load(laneVA(sess.SpyVA, lane)).Latency
			sym[lane] = c.classify(lat)
			cur[lane] = Sample{Cycle: kt.Now(), Latency: lat}
			if c.labelled {
				cur[lane].Class = Class(sym[lane])
			}
		}
	}
	record := func() {
		for lane := range cur {
			r.samples[lane] = append(r.samples[lane], cur[lane])
			if !c.labelled {
				r.syms[lane] = append(r.syms[lane], sym[lane])
			}
		}
	}

	syncStart := kt.Now()
	for polls := 0; ; polls++ {
		if polls > maxPeriods || kt.StopRequested() {
			return // never synchronized
		}
		measure()
		if c.start(sym[0]) {
			break
		}
	}
	r.synced = true
	r.start = kt.Now()
	if c.keepSync {
		r.syncCycles = r.start - syncStart
		record()
	}

	idleRun := 0
	for len(r.samples[0]) < maxPeriods && !kt.StopRequested() {
		measure()
		record()
		idle := true
		for _, s := range sym {
			idle = idle && c.idle(s)
		}
		if !idle {
			idleRun = 0
		} else if idleRun++; idleRun >= c.endRun {
			break
		}
	}
	r.end = kt.Now()
	r.RxBits = c.decode(r)
}
