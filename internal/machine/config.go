package machine

import (
	"fmt"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/sim"
)

// Latencies are the component service times (in cycles) composed into
// end-to-end load/store latencies. The defaults are calibrated so the
// four (location, coherence-state) bands land where the paper's Figure 2
// and §V place them on the Xeon X5650: local S ≈ 98, local E ≈ 124,
// remote S ≈ 186, remote E ≈ 242, DRAM ≈ 346 cycles.
type Latencies struct {
	// L1Hit is a load hit in the core's L1.
	L1Hit sim.Cycles
	// L2Hit is a load that misses L1 and hits L2.
	L2Hit sim.Cycles
	// MissBase is the L1+L2 tag-check overhead paid by every request
	// that leaves the core's private caches.
	MissBase sim.Cycles
	// Ring is the base one-way latency of the on-chip interconnect
	// between a core and its socket's LLC.
	Ring sim.Cycles
	// RingService is the ring's per-message occupancy (for queuing).
	RingService sim.Cycles
	// LLCService is the LLC tag+data array access time.
	LLCService sim.Cycles
	// ForwardLocal is the extra cost of forwarding a miss from the LLC to
	// the owning core's private cache within the same socket — the
	// E-state penalty the covert channel measures (124-98 = 26).
	ForwardLocal sim.Cycles
	// QPI is the base one-way latency of the inter-socket link.
	QPI sim.Cycles
	// QPIService is the QPI per-message occupancy.
	QPIService sim.Cycles
	// ForwardRemote is the extra cost of the remote-socket owner forward.
	ForwardRemote sim.Cycles
	// DRAMService is the memory access time after all caches miss.
	DRAMService sim.Cycles
	// DRAMChannelService is the memory channel occupancy (for queuing).
	DRAMChannelService sim.Cycles
	// StoreHit is a store to a line already writable (M, or E upgrading
	// silently).
	StoreHit sim.Cycles
	// RFOOverhead is the additional invalidation cost of a write miss or
	// S->M upgrade, on top of the corresponding load path.
	RFOOverhead sim.Cycles
	// BusArbitration is the extra cost every off-core request pays in
	// SnoopBus mode (winning the broadcast bus).
	BusArbitration sim.Cycles
	// PageWalk is the TLB-miss penalty. Zero disables TLB modelling.
	PageWalk sim.Cycles
	// FlushBase is the cost of a clflush reaching every cache.
	FlushBase sim.Cycles
	// FlushDirty is the additional write-back cost when a flush finds a
	// dirty copy.
	FlushDirty sim.Cycles
	// Jitter is the half-width of the deterministic triangular noise
	// added to every memory operation, mimicking the narrow measurement
	// spread inside each Figure 2 band.
	Jitter int64
	// ProbePressureJitter scales the extra latency spread caused by
	// high-frequency flush+reload probing of a single line (queue and
	// pipeline pressure). It is the calibrated knob behind the
	// accuracy-vs-rate tradeoff of Figure 8; zero disables the model.
	ProbePressureJitter float64
}

// DefaultLatencies returns the Xeon-X5650-calibrated component times.
func DefaultLatencies() Latencies {
	return Latencies{
		L1Hit:               4,
		L2Hit:               12,
		MissBase:            16,
		Ring:                14,
		RingService:         4,
		LLCService:          54,
		ForwardLocal:        26,
		QPI:                 44,
		QPIService:          6,
		ForwardRemote:       56,
		DRAMService:         160,
		DRAMChannelService:  30,
		StoreHit:            3,
		RFOOverhead:         20,
		BusArbitration:      10,
		PageWalk:            120,
		FlushBase:           90,
		FlushDirty:          30,
		Jitter:              5,
		ProbePressureJitter: 10,
	}
}

// Mitigations are the §VIII-E defensive hardware options. All default to
// off; the mitigate package and ablation benches flip them.
type Mitigations struct {
	// LLCNotifiedOfEToM implements the paper's hardware change #3: E->M
	// upgrades notify the LLC, so a miss on a still-clean E line is
	// serviced directly by the LLC and the E/S latency bands collapse.
	LLCNotifiedOfEToM bool
	// EqualizeSocketLatency is the "hardware timing obfuscator": pad
	// every off-core load to the worst-case path so location is hidden.
	EqualizeSocketLatency bool
}

// Config describes a simulated multi-socket machine.
type Config struct {
	// Sockets is the processor (package) count. The paper's testbed has 2.
	Sockets int
	// CoresPerSocket is the core count per package. The testbed has 6.
	CoresPerSocket int
	// ClockHz converts cycles to seconds for bandwidth reporting.
	// The testbed runs at 2.67 GHz.
	ClockHz float64
	// Protocol selects the coherence protocol by registry name; the empty
	// string means MESI (the historical default). coherence.Protocols()
	// lists the registered names — the built-ins are MESI, MESIF, MOESI,
	// DRAGON and WT-NA.
	Protocol coherence.Protocol
	// L1, L2 are per-core private cache shapes; LLC is the per-socket
	// shared cache shape.
	L1, L2, LLC cache.Geometry
	// InclusiveLLC back-invalidates private copies on LLC eviction
	// (Intel-style). With both inclusion flags false the LLC is
	// non-inclusive (fills bypass it; write-backs land in it).
	InclusiveLLC bool
	// ExclusiveLLC makes the LLC a victim cache: fills go to private
	// caches only, L2 victims move into the LLC, and an LLC read hit
	// moves the line back out. §VIII-E: "on exclusive caches, both S-
	// and E-state blocks may have similar latency. But data accesses in
	// different cache levels and sockets will have distinct latency
	// profiles." Mutually exclusive with InclusiveLLC.
	ExclusiveLLC bool
	// TLBEntries is the per-core TLB capacity (0 disables the TLB; the
	// default models a 64-entry DTLB).
	TLBEntries int
	// NextLinePrefetch enables a simple L2 next-line prefetcher: an L2
	// load miss also fetches the following line in the background.
	// Prefetchers are a classic hazard for flush+reload attacks (they
	// touch lines the attacker did not access, perturbing coherence
	// states); the default is off, matching the paper's testbed runs,
	// and the ablation bench measures the channel with it on.
	NextLinePrefetch bool
	// Replacement selects the cache replacement policy by registry name,
	// case-insensitively, for every cache level; the empty string means
	// LRU (the historical default). cache.Policies() lists the
	// registered names — the built-ins are LRU, tree-PLRU, SRRIP and
	// BRRIP. The field is digest-relevant (omitempty keeps default-LRU
	// digests — and therefore cached cells — identical to configs that
	// predate it).
	Replacement string `json:",omitempty"`
	// SnoopBus replaces the directory lookup with a broadcast bus per
	// socket (§VIII-E's first protocol class): every off-core miss pays
	// a bus arbitration, and one bus carries all of a socket's miss
	// traffic, so it congests faster than the ring. The service paths —
	// and therefore the latency-band structure — are unchanged, which is
	// the paper's point: "our findings extend to different classes of
	// protocols."
	SnoopBus bool
	// Latencies are the component service times.
	Latencies Latencies
	// Mitigations are defensive options, normally all off.
	Mitigations Mitigations
}

// ReplacementPolicy resolves the configured replacement policy name.
// Unknown names resolve to LRU here; Validate rejects them before any
// machine is built.
func (c Config) ReplacementPolicy() cache.Policy {
	p, _ := cache.PolicyFor(c.Replacement)
	return p
}

// DefaultConfig returns the paper's testbed: a 2-socket, 6-core-per-socket
// Xeon X5650 with 32 KB L1, 256 KB L2, 12 MB inclusive LLC, MESIF, 2.67 GHz.
func DefaultConfig() Config {
	return Config{
		Sockets:        2,
		CoresPerSocket: 6,
		ClockHz:        2.67e9,
		Protocol:       coherence.MESIF,
		L1:             cache.Geometry{SizeBytes: 32 * 1024, Ways: 8},
		L2:             cache.Geometry{SizeBytes: 256 * 1024, Ways: 8},
		LLC:            cache.Geometry{SizeBytes: 12 * 1024 * 1024, Ways: 16},
		InclusiveLLC:   true,
		TLBEntries:     64,
		Latencies:      DefaultLatencies(),
	}
}

// SmallConfig returns a scaled-down machine (tiny caches, same latency
// structure) for fast unit tests and capacity-pressure experiments.
func SmallConfig() Config {
	c := DefaultConfig()
	c.L1 = cache.Geometry{SizeBytes: 2 * 1024, Ways: 4}
	c.L2 = cache.Geometry{SizeBytes: 8 * 1024, Ways: 4}
	c.LLC = cache.Geometry{SizeBytes: 64 * 1024, Ways: 8}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Sockets <= 0 || c.Sockets > maxSockets {
		return fmt.Errorf("machine: sockets must be 1..%d, got %d", maxSockets, c.Sockets)
	}
	if c.CoresPerSocket <= 0 || c.CoresPerSocket > 64 {
		return fmt.Errorf("machine: cores per socket must be 1..64, got %d", c.CoresPerSocket)
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("machine: non-positive clock %v", c.ClockHz)
	}
	if c.TLBEntries < 0 {
		return fmt.Errorf("machine: negative TLB capacity %d", c.TLBEntries)
	}
	if _, err := coherence.SpecFor(c.Protocol); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	for _, g := range []struct {
		name string
		geo  cache.Geometry
	}{{"L1", c.L1}, {"L2", c.L2}, {"LLC", c.LLC}} {
		if err := g.geo.Validate(); err != nil {
			return fmt.Errorf("machine: %s: %w", g.name, err)
		}
	}
	if c.InclusiveLLC && c.ExclusiveLLC {
		return fmt.Errorf("machine: LLC cannot be both inclusive and exclusive")
	}
	pol, err := cache.PolicyFor(c.Replacement)
	if err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	for _, g := range []struct {
		name string
		geo  cache.Geometry
	}{{"L1", c.L1}, {"L2", c.L2}, {"LLC", c.LLC}} {
		if err := pol.CheckGeometry(g.geo); err != nil {
			return fmt.Errorf("machine: %s: %w", g.name, err)
		}
	}
	return nil
}

// Cores returns the total core count.
func (c Config) Cores() int { return c.Sockets * c.CoresPerSocket }

// CyclesToSeconds converts a cycle count to seconds at the configured
// clock.
func (c Config) CyclesToSeconds(cy sim.Cycles) float64 {
	return float64(cy) / c.ClockHz
}
