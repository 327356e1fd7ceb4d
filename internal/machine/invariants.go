package machine

import (
	"errors"
	"fmt"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
)

// Violation is one broken invariant of CheckInvariants.
type Violation struct {
	// Invariant is the number in CheckInvariants' list (1..8; 9 is
	// retired).
	Invariant int
	// Line is the line-aligned address checked.
	Line   uint64
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("invariant %d: line %#x: %s", v.Invariant, v.Line, v.Detail)
}

// Violations unpacks the error CheckInvariants returns.
func Violations(err error) []*Violation {
	var out []*Violation
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range j.Unwrap() {
			out = append(out, e.(*Violation))
		}
	} else if v, ok := err.(*Violation); ok {
		out = append(out, v)
	}
	return out
}

// KnownDivergence reports whether the model is known to break invariant
// n under cfg. Two such divergences exist, both kept because the paper's
// artifacts are pinned to the behaviour that causes them:
//
//   - Invariant 1 with Mitigations.LLCNotifiedOfEToM: the LLC answers a
//     miss on a sole owner's clean E line directly and leaves the owner
//     in E beside the requester's new copy.
//   - Invariant 6 with ExclusiveLLC: a clean L2 victim moves into the LLC
//     even while sibling cores of the socket still hold the line.
func KnownDivergence(cfg Config, n int) bool {
	return n == 1 && cfg.Mitigations.LLCNotifiedOfEToM || n == 6 && cfg.ExclusiveLLC
}

// CheckInvariants validates the machine-wide coherence invariants for
// the given line and returns every violation found (joined; see
// Violations), or nil. It is an O(cores) debugging/verification observer
// used by the property tests after every operation; production paths
// never call it.
//
// Invariants checked (the SWMR and bookkeeping properties of Sorin, Hill
// & Wood, adapted to the two-level-private + shared-LLC hierarchy):
//
//  1. Single writer: at most one core holds the line in a writable state
//     (M, or E which can silently upgrade), and if one does, no other
//     core holds any valid copy.
//  2. Dirty uniqueness: at most one dirty (M/O) copy exists globally.
//  3. Directory accuracy: a socket's sharer bit for a core is set iff
//     that core's L1 or L2 holds a valid copy.
//  4. L1 inclusion: every valid L1 line is also valid in the same
//     core's L2.
//  5. LLC inclusion (inclusive mode): every valid private copy is also
//     present in its socket's LLC.
//  6. LLC exclusion (exclusive mode): no line is simultaneously valid in
//     a socket's LLC and any of that socket's private caches.
//  7. Protocol state legality: every cached state belongs to the
//     configured protocol's spec table.
//  8. Unique-state uniqueness: at most one copy of any state the spec
//     declares unique (MESIF's one Forwarder, MOESI's and Dragon's one
//     Owner) exists globally.
//  9. Retired. It was LLC-valid accuracy (a socket's LLC-valid mark
//     implies its LLC holds the line), which now holds by construction:
//     the mark is a bit on the LLC's own line and leaves with it. The
//     number stays reserved so Violation.Invariant values and
//     KnownDivergence keep their meaning.
func (m *Machine) CheckInvariants(addr uint64) error {
	line := cache.LineAddr(addr)
	var errs []error
	fail := func(n int, format string, args ...any) {
		errs = append(errs, &Violation{Invariant: n, Line: line, Detail: fmt.Sprintf(format, args...)})
	}

	type holder struct {
		core  *Core
		state coherence.State
	}
	var holders []holder
	dirty := 0
	writers := 0

	for _, sock := range m.sockets {
		privInSocket := 0
		for _, core := range sock.Cores {
			l1 := core.L1.Probe(line)
			l2 := core.L2.Probe(line)

			// Invariant 7: protocol legality.
			for _, st := range []coherence.State{l1, l2} {
				if st.Valid() && !m.spec.Has(st) {
					fail(7, "core %d holds %v, illegal under %s", core.Global, st, m.spec.Name())
				}
			}
			// Invariant 4: L1 ⊆ L2.
			if l1.Valid() && !l2.Valid() {
				fail(4, "core %d: in L1 (%v) but not L2", core.Global, l1)
			}

			st := l1
			if !st.Valid() {
				st = l2
			}
			if st.Valid() {
				privInSocket++
				holders = append(holders, holder{core, st})
				if st.Dirty() {
					dirty++
				}
				if st.Writable() {
					writers++
				}
			}

			// Invariant 3: directory accuracy.
			inDir := m.lines.sharerMask(line, sock.ID)&(1<<core.Local) != 0
			if st.Valid() != inDir {
				fail(3, "core %d: presence=%v but directory sharer bit=%v", core.Global, st.Valid(), inDir)
			}
		}

		llcHas := sock.LLC.Contains(line)
		// Invariant 5: inclusive LLC.
		if m.cfg.InclusiveLLC && privInSocket > 0 && !llcHas {
			fail(5, "socket %d: %d private copies without an LLC copy (inclusion violated)", sock.ID, privInSocket)
		}
		// Invariant 6: exclusive LLC.
		if m.cfg.ExclusiveLLC && privInSocket > 0 && llcHas {
			fail(6, "socket %d: in both LLC and private caches (exclusion violated)", sock.ID)
		}
	}

	// Invariant 2: dirty uniqueness.
	if dirty > 1 {
		fail(2, "%d dirty copies", dirty)
	}
	// Invariant 8: at most one copy of any spec-unique state.
	counts := make(map[coherence.State]int)
	for _, h := range holders {
		counts[h.state]++
	}
	for st, n := range counts {
		if n > 1 && m.spec.Unique(st) {
			fail(8, "%d copies in unique state %v under %s", n, st, m.spec.Name())
		}
	}
	// Invariant 1: single writer implies sole copy.
	if writers > 1 {
		fail(1, "%d writable copies", writers)
	} else if writers == 1 && len(holders) > 1 {
		writer := holders[0]
		for _, h := range holders {
			if h.state.Writable() {
				writer = h
				break
			}
		}
		fail(1, "writable at core %d but %d total copies exist", writer.core.Global, len(holders))
	}
	return errors.Join(errs...)
}
