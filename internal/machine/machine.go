// Package machine composes the substrates — caches, coherence directory,
// interconnect, DRAM — into the simulated multi-socket multi-core machine
// the attack runs on. It exposes Load, Store and Flush with cycle-accurate
// accounting: the latency of a load is a deterministic function of which
// service path the coherence protocol selects, which is exactly the signal
// the paper's covert channel modulates.
package machine

import (
	"fmt"
	"math/bits"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/interconnect"
	"coherentleak/internal/sim"
)

// Core is one simulated core with private L1 and L2 caches.
type Core struct {
	// Global is the machine-wide core id.
	Global int
	// Socket is the owning socket id.
	Socket int
	// Local is the index within the socket (the directory's core id).
	Local int

	L1 *cache.Cache
	L2 *cache.Cache
}

// Socket is one processor package: cores, a shared LLC and the on-chip
// ring. Its directory (the LLC's core-valid bits) lives in the machine's
// line table.
type Socket struct {
	ID    int
	Cores []*Core
	LLC   *cache.Cache
	Ring  *interconnect.Link
}

// Machine is the simulated testbed.
type Machine struct {
	cfg   Config
	world *sim.World
	rng   *sim.Rand

	// spec is the resolved coherence protocol table every state
	// transition, fill decision and store policy is looked up from.
	spec *coherence.ProtocolSpec
	// llcTrust caches whether the shared level can always answer a
	// sole-sharer miss from its clean copy: true when the E->M
	// notification mitigation is on, or when the protocol has no silent
	// upgrades at all (write-through tables), so there is nothing for
	// the LLC copy to go stale against.
	llcTrust bool

	sockets []*Socket
	cores   []*Core // flat, by global id

	// qpi[i][j] is the link from socket i to socket j (i != j); entries
	// alias their [j][i] counterparts so utilization is shared.
	qpi [][]*interconnect.Link

	dram *interconnect.Link

	// Stats tallies service paths; the experiments read it.
	Stats MachineStats

	// lines is the one record per cache line: every socket's directory
	// entry (core-valid bits, LLC-valid mark) and the line's lineMeta.
	lines lineTable

	// memo is the service-path memo table: protocol transitions, static
	// path latencies and jitter factors precomputed from (cfg, spec).
	// See memo.go; InvalidateMemo rebuilds it.
	memo *serviceMemo

	// lastUtil is the highest link utilization seen along the most
	// recent miss's service path; it feeds the contention multiplier of
	// the probe-pressure model.
	lastUtil float64

	// tlbs are the per-core translation buffers (unused when
	// Config.TLBEntries is 0).
	tlbs []tlb

	// onAccess, when non-nil, observes every completed memory operation
	// (loads, stores, and flushes). Tracers attach here; the hook must
	// not call back into the machine.
	onAccess func(ev AccessEvent)
}

// AccessEvent describes one completed memory operation for tracers.
type AccessEvent struct {
	// Cycle is the issuing thread's clock when the operation completed.
	Cycle sim.Cycles
	// Thread is the issuing sim thread's id.
	Thread int
	// Core is the global core id.
	Core int
	// Line is the line-aligned physical address.
	Line uint64
	// Op is "load", "store" or "flush".
	Op string
	// Path is the service path (loads and stores).
	Path Path
	// Latency is the operation's cost in cycles.
	Latency sim.Cycles
}

// SetAccessObserver installs (or clears, with nil) the per-operation
// observer hook.
func (m *Machine) SetAccessObserver(fn func(AccessEvent)) { m.onAccess = fn }

// Traced reports whether an access observer is attached. Batching
// executors consult it: the observer contract delivers events in
// non-decreasing cycle order, which the fused fast path cannot
// guarantee, so traced runs take the per-operation path.
func (m *Machine) Traced() bool { return m.onAccess != nil }

// lineMeta consolidates the per-line bookkeeping of the probe-pressure
// and mitigation models.
type lineMeta struct {
	// upgraded marks lines whose sole owner performed a silent E->M
	// upgrade, consulted only when Mitigations.LLCNotifiedOfEToM is on.
	upgraded bool
	// hasFlush records that lastFlush holds a real timestamp.
	hasFlush bool
	// flushEpochs counts explicit flushes of the line. A cache owner can
	// observe the same fact physically (its next load misses), so
	// exposing the counter gives attack code an exact, cheap stand-in
	// for "my reload missed, therefore the spy flushed again".
	flushEpochs uint64
	// evictEpochs counts inclusive-LLC back-invalidations (the eviction
	// analogue of flushEpochs).
	evictEpochs uint64
	// lastFlush and pressure implement the probe-pressure jitter model:
	// flushing the same line at short intervals (fast flush+reload
	// probing) widens the latency spread of subsequent misses on it.
	// This is the simulator's calibrated stand-in for the pipeline and
	// queue pressure that degrades raw-bit accuracy at high sampling
	// rates on real hardware (§VIII-B, Figure 8). See DESIGN.md.
	lastFlush sim.Cycles
	pressure  float64
}

// upgradedLine reports whether line carries a live silent-upgrade mark.
func (m *Machine) upgradedLine(line uint64) bool {
	lm := m.lines.meta(line)
	return lm != nil && lm.upgraded
}

// clearUpgraded consumes line's silent-upgrade mark, if any.
func (m *Machine) clearUpgraded(line uint64) {
	if lm := m.lines.meta(line); lm != nil {
		lm.upgraded = false
	}
}

// pressureRefCycles normalizes flush intervals in the probe-pressure
// model: an interval of this many cycles yields unit pressure.
const pressureRefCycles = 1000.0

// MachineStats counts accesses by service path.
type MachineStats struct {
	Loads      uint64
	Stores     uint64
	Flushes    uint64
	Prefetches uint64
	// ByPath counts loads and stores by where they were serviced.
	ByPath [pathCount]uint64
}

// New builds a machine inside world. It panics on invalid configuration
// (machines are constructed from static configs; see Config.Validate for
// the checked rules).
func New(world *sim.World, cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := world.Rand().Split()
	spec := coherence.MustSpec(cfg.Protocol)
	m := &Machine{
		cfg:      cfg,
		world:    world,
		rng:      rng,
		spec:     spec,
		llcTrust: cfg.Mitigations.LLCNotifiedOfEToM || !spec.SilentUpgrades(),
		lines:    lineTable{sockets: cfg.Sockets},
	}
	m.InvalidateMemo()
	lat := cfg.Latencies
	pol := cfg.ReplacementPolicy()
	for s := 0; s < cfg.Sockets; s++ {
		// In snoop-bus mode one broadcast bus replaces the ring: same
		// base latency, but every snooping cache occupies it, so its
		// per-message service time is much larger and it congests first.
		linkName, service := fmt.Sprintf("ring%d", s), lat.RingService
		if cfg.SnoopBus {
			linkName, service = fmt.Sprintf("bus%d", s), lat.RingService*3
		}
		sock := &Socket{
			ID:   s,
			LLC:  cache.MustNew(cfg.LLC, pol),
			Ring: interconnect.NewLink(linkName, lat.Ring, service, rng.Split()),
		}
		for c := 0; c < cfg.CoresPerSocket; c++ {
			core := &Core{
				Global: s*cfg.CoresPerSocket + c,
				Socket: s,
				Local:  c,
				L1:     cache.MustNew(cfg.L1, pol),
				L2:     cache.MustNew(cfg.L2, pol),
			}
			sock.Cores = append(sock.Cores, core)
			m.cores = append(m.cores, core)
		}
		m.sockets = append(m.sockets, sock)
	}
	m.qpi = make([][]*interconnect.Link, cfg.Sockets)
	for i := range m.qpi {
		m.qpi[i] = make([]*interconnect.Link, cfg.Sockets)
	}
	for i := 0; i < cfg.Sockets; i++ {
		for j := i + 1; j < cfg.Sockets; j++ {
			l := interconnect.NewLink(fmt.Sprintf("qpi%d-%d", i, j), lat.QPI, lat.QPIService, rng.Split())
			m.qpi[i][j] = l
			m.qpi[j][i] = l
		}
	}
	m.dram = interconnect.NewLink("dram", lat.DRAMService, lat.DRAMChannelService, rng.Split())
	m.tlbs = make([]tlb, len(m.cores))
	for i := range m.tlbs {
		m.tlbs[i].size = cfg.TLBEntries
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Spec returns the resolved coherence protocol table.
func (m *Machine) Spec() *coherence.ProtocolSpec { return m.spec }

// World returns the owning simulation world.
func (m *Machine) World() *sim.World { return m.world }

// Core returns the core with global id g.
func (m *Machine) Core(g int) *Core {
	if g < 0 || g >= len(m.cores) {
		panic(fmt.Sprintf("machine: core %d out of range (machine has %d)", g, len(m.cores)))
	}
	return m.cores[g]
}

// Socket returns socket s.
func (m *Machine) Socket(s int) *Socket {
	if s < 0 || s >= len(m.sockets) {
		panic(fmt.Sprintf("machine: socket %d out of range", s))
	}
	return m.sockets[s]
}

// Sockets returns the socket count.
func (m *Machine) Sockets() int { return len(m.sockets) }

// Cores returns the total core count.
func (m *Machine) Cores() int { return len(m.cores) }

// Path identifies where a load was serviced — the six latency classes of
// the attack plus the private-cache hits.
type Path uint8

const (
	// PathL1 is a private L1 hit.
	PathL1 Path = iota
	// PathL2 is a private L2 hit.
	PathL2
	// PathLocalLLC is a clean hit in the local socket's LLC (the block is
	// in S there, or uncached by cores): the paper's "local shared" band.
	PathLocalLLC
	// PathLocalForward is an LLC-forwarded hit in a sibling core's
	// private cache (block in E/M there): the "local exclusive" band.
	PathLocalForward
	// PathRemoteLLC is a clean hit in a remote socket's LLC: "remote
	// shared".
	PathRemoteLLC
	// PathRemoteForward is a forward to a remote core's private cache:
	// "remote exclusive".
	PathRemoteForward
	// PathDRAM missed every cache.
	PathDRAM

	pathCount = int(PathDRAM) + 1
)

var pathNames = [...]string{
	"L1", "L2", "LocalLLC", "LocalForward", "RemoteLLC", "RemoteForward", "DRAM",
}

func (p Path) String() string {
	if int(p) < len(pathNames) {
		return pathNames[p]
	}
	return fmt.Sprintf("Path(%d)", uint8(p))
}

// globalSharers returns the number of private caches across all sockets
// holding line.
func (m *Machine) globalSharers(line uint64) int {
	n := 0
	for s := range m.sockets {
		n += bits.OnesCount64(m.lines.sharerMask(line, s))
	}
	return n
}

// anyOtherCopy reports whether any cache outside socket s holds the line
// (private or LLC); used to decide E vs. S on a fill.
func (m *Machine) anyOtherCopy(line uint64, s int) bool {
	for other := range m.sockets {
		if other != s && m.lines.live(line, other) {
			return true
		}
	}
	return false
}

// ProbeState returns the coherence state of line in core g's private
// caches (Invalid if absent) — a debugging/verification observer.
func (m *Machine) ProbeState(g int, addr uint64) coherence.State {
	core := m.Core(g)
	if s := core.L1.Probe(addr); s.Valid() {
		return s
	}
	return core.L2.Probe(addr)
}

// FlushEpoch returns how many times addr's line has been flushed. The
// covert channel's trojan uses it to count spy periods (each spy period
// begins with exactly one flush of the shared block).
func (m *Machine) FlushEpoch(addr uint64) uint64 {
	if lm := m.lines.meta(cache.LineAddr(addr)); lm != nil {
		return lm.flushEpochs
	}
	return 0
}

// InvalidationEpoch counts every event that removed addr's line from the
// trojan's caches: explicit flushes plus inclusive-LLC back-
// invalidations. It is the period counter for eviction-based probing
// (§VI-B's "eviction of all the ways in the set"), where the spy never
// executes clflush; a real trojan observes the same events as misses on
// its next reload.
func (m *Machine) InvalidationEpoch(addr uint64) uint64 {
	if lm := m.lines.meta(cache.LineAddr(addr)); lm != nil {
		return lm.flushEpochs + lm.evictEpochs
	}
	return 0
}

// LLCHasClean reports whether socket s's LLC holds a clean serviceable
// copy of addr's line.
func (m *Machine) LLCHasClean(s int, addr uint64) bool {
	return m.lines.llcValid(cache.LineAddr(addr), m.Socket(s).ID)
}
