package covert

import (
	"fmt"

	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// Transmission is what every channel reports: the payload sent and
// decoded, the spy's timed samples, and how well and how fast the bits
// got through. The slotted channels return it as is; Result and
// MultiBitResult embed it beside their own fields.
type Transmission struct {
	// TxBits is what the trojan sent (a copy of the payload); RxBits
	// what the spy decoded.
	TxBits, RxBits []byte
	// Samples is the spy's reception trace: one timed load per spy
	// period for the self-synchronised channels (lane 0's with several
	// lanes), one timed access per slot for the slotted ones.
	Samples []Sample
	// Accuracy is the raw-bit accuracy (§VIII-B).
	Accuracy float64
	// RawKbps is the raw signalling rate: transmitted bits over the
	// reception window, or one bit per slot period.
	RawKbps float64
}

// The externally clocked channels (lrustate, dirtystate) share a period
// and a start time, the usual covert-channel assumption, so they need no
// synchronisation protocol and every slot carries one bit. They share
// one slot driver: a channel contributes only its period and what the
// trojan and the spy do inside a slot.

// slotted is what an externally clocked channel plugs into runSlots.
type slotted struct {
	period sim.Cycles
	// send encodes bit in the slot that starts at slotStart.
	send func(kt *kernel.Thread, slotStart sim.Cycles, bit byte)
	// probe measures the slot that starts at slotStart and returns the
	// sample taken right after its timed access and the decoded bit.
	probe func(kt *kernel.Thread, slotStart sim.Cycles) (Sample, byte)
}

// runSlots transmits bits one per slot: it builds the session and its
// shared page (writable for a channel whose trojan stores), lets the
// channel build its codec against it, then runs the trojan on the first
// local core and the spy on SpyCore, each from its own start time.
func runSlots(cfg machine.Config, worldSeed uint64, name string, writable bool, bits []byte,
	build func(*Session) (*slotted, error)) (*Transmission, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkBits(bits); err != nil {
		return nil, err
	}
	if cfg.CoresPerSocket < 2 {
		return nil, fmt.Errorf("covert: %s needs >= 2 cores per socket", name)
	}
	s := newSession(cfg, worldSeed)
	vas, err := s.Kern.MapShared(writable, s.TrojanProc, s.SpyProc)
	if err != nil {
		return nil, err
	}
	s.TrojanVA, s.SpyVA = vas[0], vas[1]
	c, err := build(s)
	if err != nil {
		return nil, err
	}

	tx := &Transmission{TxBits: append([]byte(nil), bits...)}
	s.Kern.Spawn(s.TrojanProc, s.LocalCores[0], name+"-trojan", func(kt *kernel.Thread) {
		start := kt.Now()
		for i, b := range tx.TxBits {
			c.send(kt, start+sim.Cycles(i)*c.period, b)
		}
	})
	s.Kern.Spawn(s.SpyProc, s.SpyCore, name+"-spy", func(kt *kernel.Thread) {
		start := kt.Now()
		for i := range tx.TxBits {
			smp, bit := c.probe(kt, start+sim.Cycles(i)*c.period)
			tx.RxBits = append(tx.RxBits, bit)
			tx.Samples = append(tx.Samples, smp)
		}
	})
	if err := s.World.Run(); err != nil {
		return nil, err
	}
	tx.Accuracy = slotAccuracy(tx.TxBits, tx.RxBits)
	tx.RawKbps = cfg.ClockHz / float64(c.period) / 1e3
	return tx, nil
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
