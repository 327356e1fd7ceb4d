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
	"fmt"

	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// SlotSample is one externally-clocked slot's decoded measurement,
// shared by the slotted channels (dirtystate, lrustate).
type SlotSample struct {
	// Slot is the slot index (one transmitted bit per slot).
	Slot int
	// Latency is the spy's timed probe in cycles.
	Latency sim.Cycles
	// Bit is the decoded symbol.
	Bit byte
}

// SlotResult is a slotted channel run's outcome.
type SlotResult struct {
	TxBits  []byte
	RxBits  []byte
	Samples []SlotSample
	// Accuracy is the fraction of slots decoded correctly.
	Accuracy float64
	// RawKbps is the raw signalling rate (one bit per slot period).
	RawKbps float64
}

// slotAccuracy scores rx against tx position-by-position.
func slotAccuracy(tx, rx []byte) float64 {
	if len(tx) == 0 {
		return 0
	}
	match := 0
	for i := range tx {
		if i < len(rx) && tx[i] == rx[i] {
			match++
		}
	}
	return float64(match) / float64(len(tx))
}

// advanceTo parks a thread until the absolute cycle target.
func advanceTo(kt *kernel.Thread, target sim.Cycles) {
	if now := kt.Now(); target > now {
		kt.Advance(target - now)
	}
}

// DirtyStateChannel transmits through the shared line's dirty bit.
// Trojan and spy are externally clocked into fixed slots (they share a
// period and a start time, the usual covert-channel assumption), so no
// self-synchronization protocol is needed and every slot carries one bit.
type DirtyStateChannel struct {
	Config    machine.Config
	WorldSeed uint64
	// Period is the slot length in cycles; 0 selects the default.
	Period sim.Cycles
}

// DefaultDirtyStatePeriod leaves room in each slot for the trojan's
// encode access (a DRAM-serviced miss after the previous slot's flush)
// and the spy's timed flush.
const DefaultDirtyStatePeriod = sim.Cycles(4096)

// Run transmits bits and returns the decoded result.
func (c DirtyStateChannel) Run(bits []byte) (*SlotResult, error) {
	cfg := c.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkBits(bits); err != nil {
		return nil, err
	}
	if cfg.CoresPerSocket < 2 {
		return nil, fmt.Errorf("covert: dirtystate needs >= 2 cores per socket")
	}
	period := c.Period
	if period == 0 {
		period = DefaultDirtyStatePeriod
	}
	w := sim.NewWorld(sim.Config{Seed: c.WorldSeed})
	m := machine.New(w, cfg)
	k := kernel.New(m, 0)
	trojanProc := k.NewProcess("trojan")
	spyProc := k.NewProcess("spy")
	// shm-style writable sharing: the trojan's stores dirty the very
	// frame the spy flushes, without a COW break privatizing it.
	vas, err := k.MapSharedWritable(trojanProc, spyProc)
	if err != nil {
		return nil, err
	}
	trojanVA, spyVA := vas[0], vas[1]

	lat := cfg.Latencies
	// A dirty flush costs FlushBase+FlushDirty, a clean one FlushBase;
	// split the bands at the midpoint (jitter is small against it).
	threshold := lat.FlushBase + lat.FlushDirty/2

	res := &SlotResult{TxBits: bits}

	k.Spawn(trojanProc, 1, "dirty-trojan", func(kt *kernel.Thread) {
		start := kt.Now()
		for i, b := range bits {
			advanceTo(kt, start+sim.Cycles(i)*period+period/4)
			if b == 1 {
				kt.Store(trojanVA) // line goes Modified
			} else {
				kt.Load(trojanVA) // line stays clean (E/S)
			}
		}
	})
	k.Spawn(spyProc, 0, "dirty-spy", func(kt *kernel.Thread) {
		start := kt.Now()
		for i := range bits {
			advanceTo(kt, start+sim.Cycles(i)*period+period*3/4)
			a := kt.Flush(spyVA)
			bit := byte(0)
			if a.Latency >= threshold {
				bit = 1
			}
			res.RxBits = append(res.RxBits, bit)
			res.Samples = append(res.Samples, SlotSample{Slot: i, Latency: a.Latency, Bit: bit})
		}
	})
	if err := w.Run(); err != nil {
		return nil, err
	}
	res.Accuracy = slotAccuracy(res.TxBits, res.RxBits)
	res.RawKbps = cfg.ClockHz / float64(period) / 1e3
	return res, nil
}
