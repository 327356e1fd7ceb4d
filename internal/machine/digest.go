package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
)

// StateDigest returns a deterministic hash of the machine's complete
// architectural and statistical state: every cache's valid lines and
// states, every directory record, the per-line bookkeeping (flush
// epochs, upgrade marks, pressure), interconnect counters, TLB counters
// and the access statistics. Two machines that executed equivalent
// operation streams — e.g. kernel.Thread.Exec and the hand-written
// per-op loop over the same trace — must digest identically; the
// differential harness in internal/kernel/difftest asserts exactly that.
func (m *Machine) StateDigest() string {
	h := sha256.New()
	var buf [8]byte
	w := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	hashCache := func(c *cache.Cache) {
		c.ForEachValid(func(addr uint64, st coherence.State) {
			w(addr, uint64(st))
		})
		s := c.Stats
		w(s.Hits, s.Misses, s.Evictions, s.Fills, s.Flushes)
	}

	for _, core := range m.cores {
		w(0xc09e, uint64(core.Global))
		hashCache(core.L1)
		hashCache(core.L2)
	}
	for _, s := range m.sockets {
		w(0x50c6, uint64(s.ID))
		hashCache(s.LLC)
		s.Dir.ForEach(func(line uint64, e coherence.DirEntry) {
			llc, od := uint64(0), uint64(0)
			if e.LLCValid {
				llc = 1
			}
			if e.OwnerDirty {
				od = 1
			}
			w(line, e.Sharers, llc, od)
		})
		w(s.Ring.Messages, s.Ring.TotalQueuing)
	}
	w(0xd7a8, m.dram.Messages, m.dram.TotalQueuing)
	for i := 0; i < len(m.sockets); i++ {
		for j := i + 1; j < len(m.sockets); j++ {
			w(m.qpi[i][j].Messages, m.qpi[i][j].TotalQueuing)
		}
	}

	// Per-line bookkeeping in ascending line order.
	idx := make([]int, 0, m.metaUsed)
	for i := range m.metaSlots {
		if m.metaSlots[i].used {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(i, j int) bool { return m.metaSlots[idx[i]].line < m.metaSlots[idx[j]].line })
	w(0x11fe)
	for _, i := range idx {
		line, lm := m.metaSlots[i].line, &m.metaSlots[i].m
		up, hf := uint64(0), uint64(0)
		if lm.upgraded {
			up = 1
		}
		if lm.hasFlush {
			hf = 1
		}
		w(line, up, hf, lm.flushEpochs, lm.evictEpochs, lm.lastFlush, math.Float64bits(lm.pressure))
	}

	w(0x57a7, m.Stats.Loads, m.Stats.Stores, m.Stats.Flushes, m.Stats.Prefetches)
	for _, c := range m.Stats.ByPath {
		w(c)
	}
	for g := range m.cores {
		hits, misses := m.TLBStats(g)
		w(hits, misses)
	}
	return hex.EncodeToString(h.Sum(nil))
}
