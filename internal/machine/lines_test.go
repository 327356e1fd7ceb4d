package machine

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/sim"
)

// liveEntries counts the lines socket s has a directory entry for: a
// private sharer or a clean LLC copy.
func liveEntries(m *Machine, s int) int {
	n := 0
	m.entries(m.sockets[s], m.lines.sortedLines(), func(uint64, uint64, bool) { n++ })
	return n
}

// deadRecords counts the records with no sharer and no meta, which the
// table must have deleted.
func deadRecords(m *Machine) int {
	n := 0
	for _, line := range m.lines.sortedLines() {
		dead := m.lines.meta(line) == nil
		for s := range m.sockets {
			dead = dead && m.lines.sharerMask(line, s) == 0
		}
		if dead {
			n++
		}
	}
	return n
}

func newTestTable(sockets int) *lineTable {
	return &lineTable{sockets: sockets}
}

func TestDirectoryEmpty(t *testing.T) {
	tb := newTestTable(2)
	if tb.sharerMask(0x40, 0) != 0 || tb.sharerMask(0x40, 1) != 0 || tb.meta(0x40) != nil {
		t.Error("fresh table has an entry")
	}
	if c := coherence.CensusOf(tb.sharerMask(0x40, 0)); c != coherence.CensusNone {
		t.Errorf("fresh census = %v, want none", c)
	}
	if tb.used != 0 {
		t.Errorf("fresh table holds %d records", tb.used)
	}
}

func TestDirectorySharerCensus(t *testing.T) {
	tb := newTestTable(2)
	const line = 0x1000
	census := func() coherence.Census { return coherence.CensusOf(tb.sharerMask(line, 1)) }

	tb.addSharer(line, 1, 3)
	if census() != coherence.CensusOwned || tb.sharerMask(line, 1) != 1<<3 {
		t.Fatalf("one sharer: census %v, mask %b", census(), tb.sharerMask(line, 1))
	}
	tb.addSharer(line, 1, 7)
	if census() != coherence.CensusShared || tb.sharerMask(line, 1) != 1<<3|1<<7 {
		t.Fatalf("two sharers: census %v, mask %b", census(), tb.sharerMask(line, 1))
	}
	if tb.sharerMask(line, 0) != 0 {
		t.Fatal("socket 1's sharers made socket 0's entry live")
	}
	tb.removeSharer(line, 1, 3)
	if census() != coherence.CensusOwned || tb.sharerMask(line, 1) != 1<<7 {
		t.Fatal("removal did not restore the owned census")
	}
	tb.removeSharer(line, 1, 7)
	if census() != coherence.CensusNone {
		t.Fatal("removal did not empty the census")
	}
	if tb.used != 0 {
		t.Fatal("empty record not deleted")
	}
}

func TestDirectoryIdempotentAdd(t *testing.T) {
	tb := newTestTable(1)
	tb.addSharer(0x80, 0, 2)
	tb.addSharer(0x80, 0, 2)
	if tb.sharerMask(0x80, 0) != 1<<2 || tb.used != 1 {
		t.Fatalf("duplicate add: mask %b, %d records", tb.sharerMask(0x80, 0), tb.used)
	}
}

// The LLC-valid mark lives on the LLC's line, not in the table: a fill
// marks exactly the local LLC, an upgrade makes the mark stale and keeps
// the writer's sharer bit, the writer's dirty eviction marks the
// written-back copy and leaves the line with no record, and a flush
// drops the mark.
func TestDirectoryLLCValidLifecycle(t *testing.T) {
	runOn(t, SmallConfig(), func(th *sim.Thread, m *Machine) {
		const line = 0x3000
		m.Load(th, 0, line)
		m.Load(th, 1, line)
		if !m.LLCHasClean(0, line) || m.LLCHasClean(1, line) {
			t.Fatal("fill did not mark exactly the local LLC")
		}
		m.Store(th, 0, line)
		if m.LLCHasClean(0, line) {
			t.Fatal("upgrade left the LLC copy marked clean")
		}
		if m.lines.sharerMask(line, 0) != 1 {
			t.Fatalf("upgrade left sharers %b, want the writer's", m.lines.sharerMask(line, 0))
		}
		// Four more lines in the writer's L2 set evict the dirty copy.
		stride := uint64(m.Core(0).L2.Geometry().Sets()) * cache.LineSize
		for k := uint64(1); k <= 4; k++ {
			m.Load(th, 0, line+k*stride)
		}
		if m.ProbeState(0, line).Valid() {
			t.Fatal("the writer's copy survived its L2 set filling up")
		}
		if !m.LLCHasClean(0, line) {
			t.Fatal("write-back not marked clean")
		}
		if m.lines.find(line) >= 0 {
			t.Fatal("a line with only an LLC copy kept a record")
		}
		m.Flush(th, 0, line)
		if m.LLCHasClean(0, line) {
			t.Fatal("flush left the mark")
		}
	})
}

func TestDirectoryClear(t *testing.T) {
	tb := newTestTable(2)
	const line = 0x4000
	tb.addSharer(line, 0, 0)
	tb.addSharer(line, 0, 1)
	tb.addSharer(line, 1, 4)
	tb.clearLine(line)
	if tb.sharerMask(line, 0) != 0 || tb.sharerMask(line, 1) != 0 || tb.used != 0 {
		t.Fatal("clear left state behind")
	}
	// A record with meta outlives clear; the meta is untouched.
	tb.metaMake(line).flushEpochs = 3
	tb.addSharer(line, 1, 4)
	tb.clearLine(line)
	if tb.sharerMask(line, 1) != 0 || tb.used != 1 || tb.meta(line).flushEpochs != 3 {
		t.Fatal("clear of a line with meta")
	}
}

func TestDirectoryRemoveUnknownLine(t *testing.T) {
	tb := newTestTable(2)
	tb.removeSharer(0x9c0, 1, 1)
	tb.clearLine(0x9c0)
	if tb.used != 0 || tb.meta(0x9c0) != nil {
		t.Fatal("phantom records created")
	}
}

func TestIsSharer(t *testing.T) {
	tb := newTestTable(2)
	tb.addSharer(0x40, 0, 5)
	is := func(line uint64, s, core int) bool { return tb.sharerMask(line, s)&(1<<core) != 0 }
	if !is(0x40, 0, 5) || is(0x40, 0, 4) || is(0x40, 1, 5) || is(0x80, 0, 5) {
		t.Fatal("sharer bits wrong")
	}
}

// Property: the sharer count always equals the number of distinct cores
// added and not yet removed, regardless of operation order.
func TestDirectorySharerCountProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := newTestTable(1)
		ref := make(map[int]bool)
		const line = 0xabc0
		for _, op := range ops {
			core := int(op % 16)
			if op&0x8000 != 0 {
				tb.removeSharer(line, 0, core)
				delete(ref, core)
			} else {
				tb.addSharer(line, 0, core)
				ref[core] = true
			}
			if bits.OnesCount64(tb.sharerMask(line, 0)) != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A *lineMeta survives record creation, deletion and table growth; only
// metaMake may move the slab.
func TestLineMetaPointerStable(t *testing.T) {
	tb := newTestTable(2)
	lm := tb.metaMake(0x40)
	lm.flushEpochs = 9
	slots := len(tb.slots)
	for i := uint64(1); i <= 1000; i++ {
		tb.addSharer(i*64+0x100000, int(i%2), int(i%6))
		tb.addSharer(i*64+0x200000, 1, 0)
		tb.removeSharer(i*64+0x100000, int(i%2), int(i%6))
	}
	if len(tb.slots) == slots {
		t.Fatal("the table did not grow")
	}
	if got := tb.meta(0x40); got != lm || lm.flushEpochs != 9 {
		t.Fatal("meta moved across record churn and growth")
	}
}

// modelRec is the map model's view of one line.
type modelRec struct {
	sharers [3]uint64
	meta    bool
	epochs  uint64
}

func (r modelRec) dead() bool {
	return r.sharers == [3]uint64{} && !r.meta
}

// Property: the table answers every query like a map, across random
// record creation, deletion (which shifts later records back) and
// growth, including queries right after a delete and right after a
// rehash, and for every line of the pool now and then.
func TestLineTableMatchesMapModel(t *testing.T) {
	const sockets = 3
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		tb := newTestTable(sockets)
		model := map[uint64]modelRec{}
		pool := 64 + r.Intn(600)
		check := func(line uint64, when string) {
			t.Helper()
			want := model[line]
			for s := 0; s < sockets; s++ {
				if got := tb.sharerMask(line, s); got != want.sharers[s] {
					t.Fatalf("seed %d %s: line %#x socket %d sharers %b, want %b", seed, when, line, s, got, want.sharers[s])
				}
			}
			lm := tb.meta(line)
			if (lm != nil) != want.meta || lm != nil && lm.flushEpochs != want.epochs {
				t.Fatalf("seed %d %s: line %#x meta %v, want %v", seed, when, line, lm, want.meta)
			}
		}
		for op := 0; op < 6000; op++ {
			line := uint64(r.Intn(pool)) * 64
			s, core := r.Intn(sockets), r.Intn(64)
			rec := model[line]
			slots := len(tb.slots)
			switch r.Intn(6) {
			case 0, 1:
				tb.addSharer(line, s, core)
				rec.sharers[s] |= 1 << core
			case 2, 3:
				tb.removeSharer(line, s, core)
				rec.sharers[s] &^= 1 << core
			case 4:
				// Drain every entry of the line, then clear it.
				for c := 0; c < 64; c++ {
					tb.removeSharer(line, s, c)
				}
				rec.sharers[s] = 0
				if r.Intn(2) == 0 {
					tb.clearLine(line)
					rec.sharers = [3]uint64{}
				}
			case 5:
				if r.Intn(8) == 0 {
					tb.metaMake(line).flushEpochs++
					rec.meta = true
					rec.epochs++
				}
			}
			if rec.dead() {
				delete(model, line)
			} else {
				model[line] = rec
			}
			check(line, "after op")
			if len(tb.slots) != slots {
				// Right after a rehash: the lookaside was re-resolved.
				for _, e := range tb.look {
					check(e.line, "after growth")
				}
			}
			if op%97 == 0 {
				for l := 0; l < pool; l++ {
					check(uint64(l)*64, "sweep")
				}
			}
			if tb.used != len(model) {
				t.Fatalf("seed %d op %d: %d records, model has %d", seed, op, tb.used, len(model))
			}
			if tb.used > len(tb.slots)*3/4 {
				t.Fatalf("seed %d op %d: load %d over 3/4 of %d", seed, op, tb.used, len(tb.slots))
			}
		}
		for l := 0; l < pool; l++ {
			check(uint64(l)*64, "final sweep")
		}
	}
}
