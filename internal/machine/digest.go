package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

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
	lines := m.lines.sortedLines()
	for _, s := range m.sockets {
		w(0x50c6, uint64(s.ID))
		hashCache(s.LLC)
		m.entries(s, lines, func(line, sharers uint64, clean bool) {
			w(line, sharers, b2u(clean))
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
	w(0x11fe)
	for _, line := range lines {
		if lm := m.lines.meta(line); lm != nil {
			w(line, b2u(lm.upgraded), b2u(lm.hasFlush), lm.flushEpochs, lm.evictEpochs,
				uint64(lm.lastFlush), math.Float64bits(lm.pressure))
		}
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

// entries calls fn, in ascending line order, for every line sock has a
// directory entry for: a private sharer, or a clean LLC copy. lines is
// the line table's sortedLines, which holds every line with a sharer;
// the lines with only a clean LLC copy come from the LLC itself.
func (m *Machine) entries(sock *Socket, lines []uint64, fn func(line, sharers uint64, clean bool)) {
	clean := sock.LLC.CleanLines()
	i := 0
	for _, line := range lines {
		sharers := m.lines.sharerMask(line, sock.ID)
		if sharers == 0 {
			continue
		}
		for ; i < len(clean) && clean[i] < line; i++ {
			fn(clean[i], 0, true)
		}
		hit := i < len(clean) && clean[i] == line
		if hit {
			i++
		}
		fn(line, sharers, hit)
	}
	for ; i < len(clean); i++ {
		fn(clean[i], 0, true)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
