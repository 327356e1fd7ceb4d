package machine

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"coherentleak/internal/coherence"
)

// liveEntries counts the lines with a live entry for socket s.
func liveEntries(m *Machine, s int) int {
	n := 0
	for _, line := range m.lines.sortedLines() {
		if m.lines.live(line, s) {
			n++
		}
	}
	return n
}

// deadRecords counts the records with no live entry and no meta, which
// the table must have deleted.
func deadRecords(m *Machine) int {
	n := 0
	for _, line := range m.lines.sortedLines() {
		dead := m.lines.meta(line) == nil
		for s := range m.sockets {
			dead = dead && !m.lines.live(line, s)
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
	if tb.sharerMask(0x40, 0) != 0 || tb.live(0x40, 1) || tb.meta(0x40) != nil {
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
	if tb.live(line, 0) {
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

// An LLC-only entry keeps its record; invalidateLLC deletes it once no
// sharer is left and keeps the sharers otherwise. Every mutation is
// visible to the next query, which the lookaside answers.
func TestDirectoryLLCValidLifecycle(t *testing.T) {
	tb := newTestTable(2)
	const line = 0x3000
	tb.markLLC(line, 1)
	if !tb.llcValid(line, 1) || tb.llcValid(line, 0) || !tb.live(line, 1) {
		t.Fatal("markLLC not recorded for exactly its socket")
	}
	if tb.used != 1 {
		t.Fatal("LLC-only record deleted")
	}
	tb.invalidateLLC(line, 1)
	if tb.used != 0 || tb.live(line, 1) {
		t.Fatal("invalidateLLC left an empty record")
	}
	tb.addSharer(line, 1, 2)
	tb.markLLC(line, 1)
	tb.invalidateLLC(line, 1)
	if tb.llcValid(line, 1) {
		t.Fatal("invalidateLLC not visible to the next query")
	}
	if tb.sharerMask(line, 1) != 1<<2 {
		t.Fatal("invalidateLLC dropped the sharers")
	}
}

func TestDirectoryClear(t *testing.T) {
	tb := newTestTable(2)
	const line = 0x4000
	tb.addSharer(line, 0, 0)
	tb.addSharer(line, 0, 1)
	tb.addSharer(line, 1, 4)
	tb.markLLC(line, 0)
	tb.markLLC(line, 1)
	tb.clearLine(line)
	if tb.live(line, 0) || tb.live(line, 1) || tb.used != 0 {
		t.Fatal("clear left state behind")
	}
	// A record with meta outlives clear; the meta is untouched.
	tb.metaMake(line).flushEpochs = 3
	tb.addSharer(line, 1, 4)
	tb.clearLine(line)
	if tb.live(line, 1) || tb.used != 1 || tb.meta(line).flushEpochs != 3 {
		t.Fatal("clear of a line with meta")
	}
}

func TestDirectoryRemoveUnknownLine(t *testing.T) {
	tb := newTestTable(2)
	tb.removeSharer(0x9c0, 1, 1)
	tb.invalidateLLC(0x9c0, 0)
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
		tb.markLLC(i*64+0x200000, 1)
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
	llc     uint16
	meta    bool
	epochs  uint64
}

func (r modelRec) dead() bool {
	return r.sharers == [3]uint64{} && r.llc == 0 && !r.meta
}

// Property: the table answers every query like a map, across random
// record creation, deletion (tombstones) and growth, including queries
// right after a delete and right after a rehash.
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
				if got := tb.llcValid(line, s); got != (want.llc>>s&1 != 0) {
					t.Fatalf("seed %d %s: line %#x socket %d llcValid %v", seed, when, line, s, got)
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
			switch r.Intn(7) {
			case 0, 1:
				tb.addSharer(line, s, core)
				rec.sharers[s] |= 1 << core
			case 2:
				tb.removeSharer(line, s, core)
				rec.sharers[s] &^= 1 << core
			case 3:
				tb.markLLC(line, s)
				rec.llc |= 1 << s
			case 4:
				tb.invalidateLLC(line, s)
				rec.llc &^= 1 << s
			case 5:
				// Drain every entry of the line, then clear it.
				for c := 0; c < 64; c++ {
					tb.removeSharer(line, s, c)
				}
				rec.sharers[s] = 0
				if r.Intn(2) == 0 {
					tb.clearLine(line)
					rec.sharers, rec.llc = [3]uint64{}, 0
				}
			case 6:
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
			if tb.used != len(model) {
				t.Fatalf("seed %d op %d: %d records, model has %d", seed, op, tb.used, len(model))
			}
			if tb.used+tb.tombs > len(tb.slots)*3/4 {
				t.Fatalf("seed %d op %d: load %d+%d over 3/4 of %d", seed, op, tb.used, tb.tombs, len(tb.slots))
			}
		}
		for l := 0; l < pool; l++ {
			check(uint64(l)*64, "final sweep")
		}
	}
}
