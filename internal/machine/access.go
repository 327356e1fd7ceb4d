package machine

import (
	"fmt"
	"math/bits"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/sim"
)

// Access is the outcome of one timed memory operation.
type Access struct {
	// Latency is the end-to-end cost in cycles, including interconnect
	// queuing and measurement jitter. It is what the spy's rdtsc sees.
	Latency sim.Cycles
	// Path is the service path the coherence protocol selected.
	Path Path
}

// Load performs a timed read of addr by core g on behalf of thread t.
// The thread's clock advances by the returned latency.
func (m *Machine) Load(t *sim.Thread, g int, addr uint64) Access {
	a := m.load(t, g, addr)
	t.Advance(a.Latency)
	if m.onAccess != nil {
		m.emit(t.Now(), t, g, addr, "load", a)
	}
	return a
}

// LoadTimed is Load without the clock advance: it performs the full
// access (state changes, RNG draws, stats) at the thread's current time
// and returns the latency for the caller to account. It exists for the
// access-stream executor (kernel.Thread.Exec), which fuses the advance with the
// op's think time; interleaving LoadTimed with other threads' work
// before advancing breaks the determinism contract.
func (m *Machine) LoadTimed(t *sim.Thread, g int, addr uint64) Access {
	a := m.load(t, g, addr)
	if m.onAccess != nil {
		m.emit(t.Now()+a.Latency, t, g, addr, "load", a)
	}
	return a
}

func (m *Machine) load(t *sim.Thread, g int, addr uint64) Access {
	core := m.Core(g)
	line := cache.LineAddr(addr)
	m.Stats.Loads++
	walk := m.tlbPenalty(g, addr)

	// Private-cache hits.
	if l := core.L1.Lookup(line); l != nil {
		return m.finish(line, PathL1, m.cfg.Latencies.L1Hit+walk)
	}
	if l := core.L2.Lookup(line); l != nil {
		// Refill L1 in the same state; inclusion (L1 ⊆ L2) means the L1
		// victim needs no write-back beyond its L2 copy.
		m.fillL1Absent(core, line, l.State)
		return m.finish(line, PathL2, m.cfg.Latencies.L2Hit+walk)
	}

	path, base := m.missPath(t.Now(), core, line)
	if m.cfg.NextLinePrefetch {
		m.prefetchNext(t.Now(), core, line)
	}
	if m.cfg.Mitigations.EqualizeSocketLatency && path >= PathLocalLLC {
		worst := m.cfg.Latencies.MissBase + 2*m.cfg.Latencies.Ring +
			m.cfg.Latencies.LLCService + 2*m.cfg.Latencies.QPI +
			m.cfg.Latencies.ForwardRemote
		if base < worst {
			base = worst
		}
	}
	return m.finish(line, path, base+walk)
}

// prefetchNext issues the next-line prefetch: a background fill of
// line+64 into core's caches. It runs the full coherence transaction
// (prefetches downgrade other cores' E/M copies exactly like demand
// loads — the behaviour that perturbs probing attacks) but charges the
// requesting thread nothing; the prefetch engine works off the critical
// path.
func (m *Machine) prefetchNext(now sim.Cycles, core *Core, line uint64) {
	next := line + cache.LineSize
	if core.L1.Contains(next) || core.L2.Contains(next) {
		return
	}
	m.Stats.Prefetches++
	m.missPath(now, core, next)
}

// missPath services a load miss for core on line, running the coherence
// transaction (state changes, directory updates, fills) and returning the
// path taken plus its base latency including interconnect queuing. The
// static (queue-free) portion of each path comes from the memo table;
// the ring/QPI/DRAM hops stay dynamic because their queuing delay — and
// the RNG draws realizing it — depends on the traversal time.
func (m *Machine) missPath(now sim.Cycles, core *Core, line uint64) (Path, sim.Cycles) {
	lat := m.cfg.Latencies
	sock := m.sockets[core.Socket]
	m.lastUtil = sock.Ring.Utilization(now)
	base := m.memo.missCommon + sock.Ring.Traverse(now) + sock.Ring.Traverse(now)

	switch coherence.CensusOf(m.lines.sharerMask(line, sock.ID)) {
	case coherence.CensusShared:
		// Two or more local sharers: the LLC's copy is clean (S state)
		// and services the miss directly (§VI-A).
		if m.llcServiceable(sock, line) {
			m.fillRequestor(core, line, false)
			m.exclusiveMoveOut(sock, line)
			return PathLocalLLC, base
		}
		// Non-inclusive LLC may lack the copy; fall back to a sharer
		// forward (same latency class as the E-state path).
		m.forwardFromLocal(sock, core, line)
		return PathLocalForward, base + lat.ForwardLocal

	case coherence.CensusOwned:
		// A single owner may hold the line in E or M; the LLC copy is
		// possibly stale, so the request is forwarded to the owner —
		// unless the LLC can prove its copy current (the E->M notification
		// mitigation, or a protocol with no silent upgrades at all).
		if m.llcTrust && !m.upgradedLine(line) && m.llcServiceable(sock, line) {
			m.fillRequestor(core, line, false)
			return PathLocalLLC, base
		}
		m.forwardFromLocal(sock, core, line)
		return PathLocalForward, base + lat.ForwardLocal

	case coherence.CensusNone:
		if m.llcServiceable(sock, line) {
			// Clean LLC hit with no private copies: no coherence activity.
			m.fillRequestor(core, line, false)
			m.exclusiveMoveOut(sock, line)
			return PathLocalLLC, base
		}
	}

	// Local socket cannot service the miss: consult the other sockets
	// over the inter-socket link before falling through to DRAM.
	for _, remote := range m.sockets {
		if remote.ID == core.Socket {
			continue
		}
		qpiLink := m.qpi[core.Socket][remote.ID]
		if u := qpiLink.Utilization(now); u > m.lastUtil {
			m.lastUtil = u
		}
		switch coherence.CensusOf(m.lines.sharerMask(line, remote.ID)) {
		case coherence.CensusShared:
			hop := qpiLink.Traverse(now) + qpiLink.Traverse(now)
			if m.llcServiceable(remote, line) {
				m.fillRequestor(core, line, false)
				return PathRemoteLLC, base + hop
			}
			m.forwardFromRemote(remote, core, line)
			return PathRemoteForward, base + hop + lat.ForwardRemote
		case coherence.CensusOwned:
			hop := qpiLink.Traverse(now) + qpiLink.Traverse(now)
			if m.llcTrust && !m.upgradedLine(line) && m.llcServiceable(remote, line) {
				m.fillRequestor(core, line, false)
				return PathRemoteLLC, base + hop
			}
			m.forwardFromRemote(remote, core, line)
			return PathRemoteForward, base + hop + lat.ForwardRemote
		case coherence.CensusNone:
			if m.llcServiceable(remote, line) {
				hop := qpiLink.Traverse(now) + qpiLink.Traverse(now)
				m.fillRequestor(core, line, false)
				return PathRemoteLLC, base + hop
			}
		}
	}

	// DRAM. The home agent's directory cache (snoop filter) answers for
	// lines no other socket has ever cached, so ordinary private-data
	// misses go straight to memory without QPI traffic. Lines that were
	// explicitly flushed lose that shortcut: clflush clears the filter
	// state, so their next fetch performs the full cross-socket snoop —
	// which is why the spy's flush+reload probe always pays the long
	// path and lands in a distinct high band.
	snoop := sim.Cycles(0)
	if m.needsSnoop(line) {
		for _, remote := range m.sockets {
			if remote.ID == core.Socket {
				continue
			}
			l := m.qpi[core.Socket][remote.ID]
			snoop += l.Traverse(now) + l.Traverse(now)
		}
	}
	if u := m.dram.Utilization(now); u > m.lastUtil {
		m.lastUtil = u
	}
	dramLat := m.dram.Traverse(now)
	m.fillRequestor(core, line, false)
	return PathDRAM, base + snoop + dramLat
}

// exclusiveMoveOut removes a just-served line from an exclusive LLC —
// exclusion means a line lives in the private caches or the LLC, never
// both.
func (m *Machine) exclusiveMoveOut(sock *Socket, line uint64) {
	if !m.cfg.ExclusiveLLC {
		return
	}
	sock.LLC.Invalidate(line)
	m.lines.invalidateLLC(line, sock.ID)
}

// needsSnoop reports whether a memory fetch of line must snoop the other
// sockets: a cleared snoop-filter entry from an explicit flush, or a
// live directory entry in any socket, the requester's own included.
func (m *Machine) needsSnoop(line uint64) bool {
	if lm := m.lines.meta(line); lm != nil && lm.flushEpochs > 0 {
		return true
	}
	for s := range m.sockets {
		if m.lines.live(line, s) {
			return true
		}
	}
	return false
}

// llcServiceable reports whether sock's LLC can answer a read for line
// with clean data. The LLC-valid mark implies the LLC holds the line
// (CheckInvariants' invariant 9).
func (m *Machine) llcServiceable(sock *Socket, line uint64) bool {
	return m.lines.llcValid(line, sock.ID)
}

// forwardFromLocal runs the owner-forward transaction within requestor's
// socket: the owner (or a sharer, for the non-inclusive fallback)
// downgrades, the LLC receives a clean copy, and the requestor fills.
func (m *Machine) forwardFromLocal(sock *Socket, requestor *Core, line uint64) {
	m.downgradeOwner(sock, line)
	m.fillRequestor(requestor, line, true)
}

// forwardFromRemote is forwardFromLocal across the socket link.
func (m *Machine) forwardFromRemote(remote *Socket, requestor *Core, line uint64) {
	m.downgradeOwner(remote, line)
	m.fillRequestor(requestor, line, true)
}

// downgradeOwner applies the RemoteRead transition to every private copy
// in sock (normally exactly one, the owner), leaving a clean copy in
// sock's LLC when the protocol writes back.
func (m *Machine) downgradeOwner(sock *Socket, line uint64) {
	for mask := m.lines.sharerMask(line, sock.ID); mask != 0; mask &= mask - 1 {
		core := sock.Cores[bits.TrailingZeros64(mask)]
		m.downgradeIn(sock, core.L1, line)
		m.downgradeIn(sock, core.L2, line)
	}
	// The owner no longer holds the line exclusively; any recorded
	// silent-upgrade mark is consumed by the write-back. The marks only
	// exist when llcTrust tracks them.
	if m.llcTrust {
		m.clearUpgraded(line)
	}
}

// downgradeIn applies the RemoteRead transition to pc's copy of line, if
// any, writing a clean copy back to sock's LLC when the protocol says so.
func (m *Machine) downgradeIn(sock *Socket, pc *cache.Cache, line uint64) {
	st := pc.Probe(line)
	if !st.Valid() {
		return
	}
	tr := m.memo.remoteRead[st]
	pc.SetState(line, tr.Next)
	if tr.Action == coherence.SupplyAndWriteBack && !m.cfg.ExclusiveLLC {
		// Exclusive LLCs never take the downgrade copy; dirty data goes
		// straight to memory instead.
		m.installLLC(sock, line)
	}
}

// fillRequestor installs line into the requestor's private caches (and
// the local LLC when inclusive), letting the spec's install policy pick
// the state from the copy census. fromForward marks fills supplied by a
// previous owner, in which case the policy's FromOwner state applies (the
// supplier retains F/O duty).
func (m *Machine) fillRequestor(core *Core, line uint64, fromForward bool) {
	sock := m.sockets[core.Socket]
	var st coherence.State
	if fromForward {
		st = m.spec.Install().FromOwner
	} else {
		census := m.globalSharers(line)
		// An inclusive LLC's own copy coexists with the requestor's E
		// (the hierarchy always duplicates locally), so only private
		// copies and *other* sockets' caches block exclusivity.
		if census == 0 && m.anyOtherCopy(line, core.Socket) {
			census = 1
		}
		st = m.spec.Install().For(census)
		if census > 0 && m.spec.Unique(st) {
			// At most one copy of a unique install state (MESIF's F):
			// demote any previous holder.
			m.demoteForwarders(line, st)
		}
	}
	m.fillPrivateAbsent(core, line, st)
	m.lines.addSharer(line, sock.ID, core.Local)
	if (m.cfg.InclusiveLLC || fromForward) && !m.cfg.ExclusiveLLC {
		m.installLLC(sock, line)
	}
}

// demoteForwarders downgrades any existing copy of line held in the
// unique install state fwd (MESIF's F) to the spec's demotion state.
func (m *Machine) demoteForwarders(line uint64, fwd coherence.State) {
	demote := m.spec.Install().Demote
	for _, s := range m.sockets {
		for mask := m.lines.sharerMask(line, s.ID); mask != 0; mask &= mask - 1 {
			core := s.Cores[bits.TrailingZeros64(mask)]
			if core.L1.Probe(line) == fwd {
				core.L1.SetState(line, demote)
			}
			if core.L2.Probe(line) == fwd {
				core.L2.SetState(line, demote)
			}
		}
	}
}

// fillPrivate inserts line into core's L2 then L1, handling evictions.
// It tolerates the line already being present (store's upgrade path fills
// over data fetched moments earlier by missPath).
func (m *Machine) fillPrivate(core *Core, line uint64, st coherence.State) {
	if ev, ok := core.L2.Insert(line, st); ok {
		m.handleL2Evict(core, ev)
	}
	m.fillL1(core, line, st)
}

// fillPrivateAbsent is fillPrivate for lines proven absent from both
// private levels (every miss path establishes this before filling), which
// lets the caches skip their re-fill scans.
func (m *Machine) fillPrivateAbsent(core *Core, line uint64, st coherence.State) {
	if ev, ok := core.L2.InsertAbsent(line, st); ok {
		m.handleL2Evict(core, ev)
	}
	m.fillL1Absent(core, line, st)
}

// fillL1 inserts into L1 only; inclusion makes the victim's L2 copy the
// surviving one, inheriting dirtiness.
func (m *Machine) fillL1(core *Core, line uint64, st coherence.State) {
	if ev, ok := core.L1.Insert(line, st); ok {
		if ev.State.Dirty() {
			core.L2.SetState(ev.Addr, ev.State)
		}
	}
}

// fillL1Absent is fillL1 for lines a preceding L1 lookup proved absent.
func (m *Machine) fillL1Absent(core *Core, line uint64, st coherence.State) {
	if ev, ok := core.L1.InsertAbsent(line, st); ok {
		if ev.State.Dirty() {
			core.L2.SetState(ev.Addr, ev.State)
		}
	}
}

// handleL2Evict processes a victim leaving core's L2: back-invalidate the
// L1 copy (L1 ⊆ L2), write dirty data back to the LLC, and update the
// directory.
func (m *Machine) handleL2Evict(core *Core, ev cache.Evicted) {
	st := ev.State
	if l1 := core.L1.Invalidate(ev.Addr); l1.Dirty() {
		st = l1
	}
	sock := m.sockets[core.Socket]
	if m.memo.evict[st].Action == coherence.WriteBack || m.cfg.ExclusiveLLC {
		// Victims whose eviction transition writes back (dirty states)
		// land in the LLC; an exclusive (victim) LLC additionally
		// captures clean victims.
		m.installLLC(sock, ev.Addr)
	}
	m.lines.removeSharer(ev.Addr, sock.ID, core.Local)
	if m.llcTrust {
		m.clearUpgraded(ev.Addr)
	}
}

// installLLC places a clean copy of line in sock's LLC and marks the
// directory, handling any LLC eviction (with back-invalidation when the
// LLC is inclusive).
func (m *Machine) installLLC(sock *Socket, line uint64) {
	if ev, ok := sock.LLC.Insert(line, coherence.Shared); ok {
		m.handleLLCEvict(sock, ev)
	}
	m.lines.markLLC(line, sock.ID)
}

// handleLLCEvict processes a victim leaving sock's LLC.
func (m *Machine) handleLLCEvict(sock *Socket, ev cache.Evicted) {
	if m.cfg.InclusiveLLC {
		// Inclusion forces the private copies out too.
		evictedPrivate := false
		// Iterate a snapshot of the mask: removeSharer mutates the entry.
		for mask := m.lines.sharerMask(ev.Addr, sock.ID); mask != 0; mask &= mask - 1 {
			local := bits.TrailingZeros64(mask)
			core := sock.Cores[local]
			core.L1.Invalidate(ev.Addr)
			core.L2.Invalidate(ev.Addr)
			m.lines.removeSharer(ev.Addr, sock.ID, local)
			evictedPrivate = true
		}
		if evictedPrivate {
			lm := m.lines.metaMake(ev.Addr)
			lm.upgraded = false
			lm.evictEpochs++
		} else if m.llcTrust {
			m.clearUpgraded(ev.Addr)
		}
	}
	m.lines.invalidateLLC(ev.Addr, sock.ID)
}

// Store performs a timed write to addr by core g on behalf of thread t.
func (m *Machine) Store(t *sim.Thread, g int, addr uint64) Access {
	a := m.store(t, g, addr)
	t.Advance(a.Latency)
	if m.onAccess != nil {
		m.emit(t.Now(), t, g, addr, "store", a)
	}
	return a
}

// StoreTimed is Store without the clock advance; see LoadTimed.
func (m *Machine) StoreTimed(t *sim.Thread, g int, addr uint64) Access {
	a := m.store(t, g, addr)
	if m.onAccess != nil {
		m.emit(t.Now()+a.Latency, t, g, addr, "store", a)
	}
	return a
}

func (m *Machine) store(t *sim.Thread, g int, addr uint64) Access {
	core := m.Core(g)
	line := cache.LineAddr(addr)
	lat := m.cfg.Latencies
	m.Stats.Stores++
	walk := m.tlbPenalty(g, addr)
	sock := m.sockets[core.Socket]

	st := m.ProbeState(g, line)
	tr := m.memo.localWrite[st]
	if tr.Latency == coherence.LatStoreHit {
		if tr.Next != st {
			// Silent upgrade (E->M): no bus traffic, which is why the LLC
			// must conservatively forward census==1 misses. The mitigation
			// makes this upgrade visible. The mark is only ever read when
			// llcTrust is on (both upgradedLine call sites are guarded by
			// it), so machines without it skip the write-only bookkeeping
			// and keep meta records off lines that need none.
			core.L1.SetState(line, tr.Next)
			core.L2.SetState(line, tr.Next)
			if m.llcTrust {
				m.lines.metaMake(line).upgraded = true
			}
		}
		return m.finish(line, PathL1, lat.StoreHit+walk)
	}

	// The store must leave the core: an RFO (fetch if missing, then settle
	// every other copy), an upgrade round, or a write-through.
	var path Path
	var base sim.Cycles
	switch tr.Latency {
	case coherence.LatUpgrade, coherence.LatWriteThrough:
		// Data already present (upgrade from S/F/O) or not wanted locally
		// (no-allocate write-through): pay the LLC round only, with no
		// bus arbitration even in snoop mode (the upgrade round is not a
		// full miss broadcast).
		path, base = PathLocalLLC, lat.MissBase+sock.Ring.Traverse(t.Now())+sock.Ring.Traverse(t.Now())+lat.LLCService
	default:
		path, base = m.missPath(t.Now(), core, line)
	}
	othersRemain := m.remoteWriteOthers(core, line)
	next := m.spec.Store().Solo
	if othersRemain {
		next = m.spec.Store().Shared
	}
	if m.spec.Store().Allocate || st.Valid() {
		m.fillPrivate(core, line, next)
		m.lines.addSharer(line, sock.ID, core.Local)
		if next.Dirty() && m.llcTrust {
			m.lines.metaMake(line).upgraded = true
		}
	}
	switch {
	case m.spec.Store().Update && othersRemain:
		// Write-update broadcast: every copy — including the shared
		// level's — received the new data in place; nothing went stale.
	case m.spec.Store().Through:
		// Write-through: the local shared level holds the data now; only
		// other sockets' records are stale.
		m.installLLC(sock, line)
		for s := range m.sockets {
			if s != core.Socket {
				m.lines.invalidateLLC(line, s)
			}
		}
	default:
		// Every LLC copy is now stale. invalidateLLC (rather than a raw
		// bit clear) also reclaims records left with no live entry after
		// remoteWriteOthers, so long store-heavy runs do not accumulate
		// dead records.
		for s := range m.sockets {
			m.lines.invalidateLLC(line, s)
		}
	}
	return m.finish(line, path, base+lat.RFOOverhead+walk)
}

// remoteWriteOthers applies the RemoteWrite transition to every copy of
// line outside the requesting core: invalidation protocols remove the
// copies, write-update protocols refresh them in place. It reports
// whether any other private copy survived.
func (m *Machine) remoteWriteOthers(requestor *Core, line uint64) bool {
	othersRemain := false
	for _, s := range m.sockets {
		for mask := m.lines.sharerMask(line, s.ID); mask != 0; mask &= mask - 1 {
			local := bits.TrailingZeros64(mask)
			if s.ID == requestor.Socket && local == requestor.Local {
				continue
			}
			core := s.Cores[local]
			survived := false
			for _, pc := range []*cache.Cache{core.L1, core.L2} {
				st := pc.Probe(line)
				if !st.Valid() {
					continue
				}
				if next := m.memo.remoteWrite[st].Next; next.Valid() {
					pc.SetState(line, next)
					survived = true
				} else {
					pc.Invalidate(line)
				}
			}
			if survived {
				othersRemain = true
			} else {
				m.lines.removeSharer(line, s.ID, local)
			}
		}
	}
	return othersRemain
}

// Flush performs a clflush-equivalent: every cached copy of addr's line in
// every socket is invalidated, dirty data is written back, and the
// directory forgets the line. Any core may flush any address (the paper's
// spy flushes read-only shared pages).
func (m *Machine) Flush(t *sim.Thread, g int, addr uint64) Access {
	a := m.flushLine(t, g, addr)
	t.Advance(a.Latency)
	if m.onAccess != nil {
		m.emit(t.Now(), t, g, addr, "flush", a)
	}
	return a
}

// FlushTimed is Flush without the clock advance; see LoadTimed.
func (m *Machine) FlushTimed(t *sim.Thread, g int, addr uint64) Access {
	a := m.flushLine(t, g, addr)
	if m.onAccess != nil {
		m.emit(t.Now()+a.Latency, t, g, addr, "flush", a)
	}
	return a
}

func (m *Machine) flushLine(t *sim.Thread, g int, addr uint64) Access {
	line := cache.LineAddr(addr)
	lat := m.cfg.Latencies
	m.Stats.Flushes++
	lm := m.lines.metaMake(line)
	lm.flushEpochs++
	m.recordFlushPressure(lm, t.Now())
	dirty := false
	for _, s := range m.sockets {
		for mask := m.lines.sharerMask(line, s.ID); mask != 0; mask &= mask - 1 {
			core := s.Cores[bits.TrailingZeros64(mask)]
			for _, pc := range []*cache.Cache{core.L1, core.L2} {
				st := pc.Invalidate(line)
				if st.Valid() && m.memo.flush[st].Action == coherence.WriteBack {
					dirty = true
				}
			}
		}
		s.LLC.Invalidate(line)
	}
	// clearLine deletes no meta, so lm stays valid across it.
	m.lines.clearLine(line)
	lm.upgraded = false
	base := lat.FlushBase
	if dirty {
		base += lat.FlushDirty
	}
	return m.finishRecorded(line, PathDRAM, base, false)
}

// recordFlushPressure updates the line's probe-pressure estimate from
// the interval since its previous flush: pressure = (Tref/interval)^4,
// EWMA-smoothed. Short intervals (fast probing) build pressure; idle
// lines decay toward zero.
func (m *Machine) recordFlushPressure(lm *lineMeta, now sim.Cycles) {
	last, seen := lm.lastFlush, lm.hasFlush
	lm.lastFlush = now
	lm.hasFlush = true
	if !seen {
		return
	}
	interval := float64(now-last) + 64
	r := pressureRefCycles / interval
	instant := r * r * r * r // quartic: pressure onsets sharply below Tref
	if instant > 6 {
		instant = 6 // saturation: queues are finite
	}
	lm.pressure = 0.5*lm.pressure + 0.5*instant
}

// pressureJitterWidth returns the extra triangular-jitter half-width for
// a miss on line serviced via path p. Longer service paths cross more
// queues, so pressure widens them more — the asymmetry §VIII-C observes
// (remote E-state latencies vary most under load).
func (m *Machine) pressureJitterWidth(line uint64, p Path) int64 {
	jc := m.memo.jc
	if jc <= 0 || p <= PathL2 {
		return 0
	}
	lm := m.lines.meta(line)
	if lm == nil {
		return 0
	}
	// Interconnect contention multiplies the probe's self-pressure:
	// deep queues turn the high-frequency probe's bursts into much
	// larger latency swings, which is how co-located memory-intensive
	// workloads degrade fast channels while leaving slow (rate-adapted)
	// ones nearly untouched (§VIII-C vs. Figure 10).
	contention := 1 + 6*m.lastUtil
	return int64(jc * lm.pressure * m.memo.factor[p] * contention)
}

// finish applies jitter (base plus probe pressure) and records the
// service path; the caller advances the thread. Flushes pass
// record=false so ByPath reflects loads and stores only.
func (m *Machine) finish(line uint64, p Path, base sim.Cycles) Access {
	return m.finishRecorded(line, p, base, true)
}

func (m *Machine) finishRecorded(line uint64, p Path, base sim.Cycles, record bool) Access {
	total := int64(base) + m.rng.Jitter(m.cfg.Latencies.Jitter)
	if w := m.pressureJitterWidth(line, p); w > 0 {
		total += m.rng.Jitter(w)
	}
	if total < 1 {
		total = 1
	}
	a := Access{Latency: sim.Cycles(total), Path: p}
	if record {
		m.Stats.ByPath[p]++
	}
	return a
}

// PathCount returns how many loads were serviced by path p.
func (s *MachineStats) PathCount(p Path) uint64 { return s.ByPath[p] }

// String summarizes the counters.
func (s *MachineStats) String() string {
	out := fmt.Sprintf("loads=%d stores=%d flushes=%d", s.Loads, s.Stores, s.Flushes)
	for p := 0; p < pathCount; p++ {
		if s.ByPath[p] > 0 {
			out += fmt.Sprintf(" %s=%d", Path(p), s.ByPath[p])
		}
	}
	return out
}

// emit delivers one completed operation to the observer hook. Callers
// guard on m.onAccess != nil so untraced runs skip event assembly and the
// call entirely; at is the operation's completion time (identical whether
// the thread clock was advanced by the machine or by a batching caller).
func (m *Machine) emit(at sim.Cycles, t *sim.Thread, g int, addr uint64, op string, a Access) {
	if m.onAccess == nil {
		return
	}
	m.onAccess(AccessEvent{
		Cycle:   at,
		Thread:  t.ID(),
		Core:    g,
		Line:    cache.LineAddr(addr),
		Op:      op,
		Path:    a.Path,
		Latency: a.Latency,
	})
}
