// LRU-state covert channel (Xiong & Szefer, "Leaking Information
// Through Cache LRU States"): the trojan encodes a bit purely in the
// *replacement metadata* of the shared line's LLC set. Each slot the spy
// primes the set so the shared block B is the designated victim, the
// trojan either re-touches B (bit 1, making B most-recently-used) or
// stays idle (bit 0), and the spy then forces exactly one eviction with
// a fresh conflict line and times a reload of B: a fast reload means B
// survived (the trojan's touch moved the victim pointer), a DRAM-bound
// reload means B was the victim. Every trojan access on the monitored
// set is a *hit* — the trojan never changes any hit/miss outcome, only
// recency — which is what distinguishes this from classic prime+probe
// and why hit/miss-preserving mitigations do not close it.
//
// How well the channel works is a property of the replacement policy:
// true LRU and tree-PLRU honour the spy's priming order, so single-touch
// control of the victim pointer is exact; SRRIP collapses all primed
// lines to the same re-reference class (the victim degenerates to a scan
// from way 0) and BRRIP's distant-insertion thrash resistance keeps the
// spy from even staging the set. The protomatrix artifact reports the
// survival surface.
package covert

import (
	"fmt"
	"sort"

	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// LRUStateChannel transmits through LLC replacement metadata, one bit
// per LRUStatePeriod slot. Trojan and spy run on the same socket (cores 1
// and 0).
type LRUStateChannel struct {
	Config    machine.Config
	WorldSeed uint64
}

// LRUStatePeriod is the slot length in cycles. It fits the spy's prime
// (two scrub passes + two passes over the 16-way conflict set, ≈60
// conflicting loads) in the first half of the slot with margin under the
// default latency model.
const LRUStatePeriod = sim.Cycles(32768)

// scrubLines is the number of same-L2-set lines used to purge the
// monitored lines from a core's private caches between passes; > the
// 8-way private associativity so one pass suffices under LRU.
const scrubLines = 12

// Run transmits bits and returns the decoded result.
func (c LRUStateChannel) Run(bits []byte) (*Transmission, error) {
	return runSlots(c.Config, c.WorldSeed, "lrustate", false, bits, c.build)
}

// build stages the spy's conflict and scrub lines on the session and
// returns the channel's slot behaviour.
func (c LRUStateChannel) build(s *Session) (*slotted, error) {
	if !c.Config.InclusiveLLC {
		return nil, fmt.Errorf("covert: lrustate requires an inclusive LLC (fills must touch LLC metadata)")
	}
	m := s.Mach
	sharedPA := s.SharedPA()
	llc := m.Socket(m.Core(s.SpyCore).Socket).LLC
	ways := llc.Geometry().Ways
	if ways < 2 {
		return nil, fmt.Errorf("covert: lrustate needs an associative LLC")
	}
	// ways-1 prime lines (set = {B, C1..C15}) plus one forcing line F.
	confVAs, confPAs, err := conflictLines(s.SpyProc, llc, sharedPA, ways, nil, "LLC conflict")
	if err != nil {
		return nil, err
	}
	primeVAs, primePAs := confVAs[:ways-1], confPAs[:ways-1]
	forceVA := confVAs[ways-1]
	// Scrub lines share B's L2 (hence L1) set but *not* its LLC set:
	// loading them evicts the monitored lines from the core's private
	// caches (so the next touch is visible to the LLC) without disturbing
	// the monitored LLC set's replacement metadata. The default geometry
	// guarantees such lines exist: the L2 set count (512) divides the LLC
	// set count (12288), so same-L2-set lines recur every 512 lines while
	// only every 24th of those shares the LLC set.
	outsideLLCSet := func(pa uint64) bool { return llc.SetIndexOf(pa) != llc.SetIndexOf(sharedPA) }
	spyScrub, _, err := conflictLines(s.SpyProc, m.Core(s.SpyCore).L2, sharedPA, scrubLines, outsideLLCSet, "scrub")
	if err != nil {
		return nil, err
	}
	trojanScrub, _, err := conflictLines(s.TrojanProc, m.Core(s.LocalCores[0]).L2, sharedPA, scrubLines, outsideLLCSet, "scrub")
	if err != nil {
		return nil, err
	}

	lat := c.Config.Latencies
	// Reload bands: B surviving in the LLC costs at most the local
	// forward path; B evicted costs the DRAM path. Split between them.
	llcBound := lat.MissBase + 2*lat.Ring + lat.LLCService + lat.ForwardLocal
	threshold := llcBound + lat.DRAMService/2

	prime := make([]int, ways-1) // C indices in touch order
	return &slotted{
		period: LRUStatePeriod,
		send: func(kt *kernel.Thread, slotStart sim.Cycles, bit byte) {
			// Mid-slot, after the spy's prime: scrub B from the private
			// caches so the encode touch is a private miss that reaches
			// the LLC's replacement metadata (an LLC *hit* — the touch
			// changes recency only, never presence).
			advanceTo(kt, slotStart+LRUStatePeriod*55/100)
			for _, a := range trojanScrub {
				kt.Load(a)
			}
			if bit == 1 {
				kt.Load(s.TrojanVA)
			}
		},
		probe: func(kt *kernel.Thread, slotStart sim.Cycles) (Sample, byte) {
			advanceTo(kt, slotStart)
			// Pass 1: ensure residency. Scrub privates, then walk the
			// full set so every line is in the LLC.
			for _, a := range spyScrub {
				kt.Load(a)
			}
			kt.Load(s.SpyVA)
			for _, a := range primeVAs {
				kt.Load(a)
			}
			// Pass 2: the priming walk. Scrub again so each touch below
			// is a private miss (visible to the LLC), then touch B first
			// and the conflict lines in ascending way-XOR distance from
			// B — under tree-PLRU the last toucher through every node on
			// B's tree path then lies in the opposite subtree, parking
			// the victim pointer exactly on B; under true LRU any order
			// with B first works and this one does too.
			for _, a := range spyScrub {
				kt.Load(a)
			}
			wayB, okB := llc.WayOf(sharedPA)
			for j := range prime {
				prime[j] = j
			}
			if okB {
				sort.SliceStable(prime, func(a, b int) bool {
					wa, oka := llc.WayOf(primePAs[prime[a]])
					wb, okb := llc.WayOf(primePAs[prime[b]])
					if !oka || !okb {
						return oka && !okb // resident lines first
					}
					return wa^wayB < wb^wayB
				})
			}
			kt.Load(s.SpyVA)
			for _, j := range prime {
				kt.Load(primeVAs[j])
			}
			// Trojan's window is 55%..85% of the slot.
			advanceTo(kt, slotStart+LRUStatePeriod*85/100)
			// Force exactly one replacement decision, then time B.
			kt.Load(forceVA)
			a := kt.Load(s.SpyVA)
			smp := Sample{Cycle: kt.Now(), Latency: a.Latency}
			// Remove F so the next slot's set again holds only B + Cs.
			kt.Flush(forceVA)
			if a.Latency < threshold {
				return smp, 1 // fast reload: B survived, so the trojan touched it
			}
			return smp, 0
		},
	}, nil
}
