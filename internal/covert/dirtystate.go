// Dirty-state covert channel (Cui et al., "Abusing Cache Line Dirty
// States"): the trojan encodes a bit in whether the shared line is
// Modified (dirty) or clean (E/S) when the spy flushes it. A flush of a
// dirty line pays the write-back (FlushBase+FlushDirty); a clean line
// flushes in FlushBase. The channel never changes the spy's hit/miss
// outcomes — both symbols leave the line equally present — so any
// mitigation that only equalizes hit/miss timing leaves it intact. It
// dies only when the protocol has no dirty state at all (WT-NA).
package covert

import (
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// DirtyStateChannel transmits through the shared line's dirty bit, one
// bit per DirtyStatePeriod slot.
type DirtyStateChannel struct {
	Config    machine.Config
	WorldSeed uint64
}

// DirtyStatePeriod is the slot length in cycles. It leaves room in each
// slot for the trojan's encode access (a DRAM-serviced miss after the
// previous slot's flush) and the spy's timed flush.
const DirtyStatePeriod = sim.Cycles(4096)

// Run transmits bits and returns the decoded result. The shared page is
// shm-style writable, so the trojan's stores dirty the very frame the spy
// flushes, without a COW break privatizing it.
func (c DirtyStateChannel) Run(bits []byte) (*Transmission, error) {
	return runSlots(c.Config, c.WorldSeed, "dirtystate", true, bits, func(s *Session) (*slotted, error) {
		lat := c.Config.Latencies
		// A dirty flush costs FlushBase+FlushDirty, a clean one FlushBase;
		// split the bands at the midpoint (jitter is small against it).
		threshold := lat.FlushBase + lat.FlushDirty/2
		return &slotted{
			period: DirtyStatePeriod,
			send: func(kt *kernel.Thread, slotStart sim.Cycles, bit byte) {
				advanceTo(kt, slotStart+DirtyStatePeriod/4)
				if bit == 1 {
					kt.Store(s.TrojanVA) // line goes Modified
				} else {
					kt.Load(s.TrojanVA) // line stays clean (E/S)
				}
			},
			probe: func(kt *kernel.Thread, slotStart sim.Cycles) (Sample, byte) {
				advanceTo(kt, slotStart+DirtyStatePeriod*3/4)
				a := kt.Flush(s.SpyVA)
				smp := Sample{Cycle: kt.Now(), Latency: a.Latency}
				if a.Latency >= threshold {
					return smp, 1
				}
				return smp, 0
			},
		}, nil
	})
}
