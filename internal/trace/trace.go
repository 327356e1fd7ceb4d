// Package trace records the simulated machine's memory operations for
// offline analysis: a bounded ring of events with line/op/path filters, a
// TSV dump, and per-line probe statistics. `cohsim covert -tracefile`
// writes it, and it is the forensic view a defender's profiler
// would see — which, per the paper's introduction, is exactly what timing
// channels leave no trace in: the recorded operations are all ordinary
// loads and flushes.
package trace

import (
	"fmt"
	"io"
	"sort"

	"coherentleak/internal/machine"
)

// Filter selects which events a Recorder keeps. Zero values match
// everything.
type Filter struct {
	// Line restricts to one line address (0 = all).
	Line uint64
	// Core restricts to one core (-1 = all).
	Core int
	// Op restricts to "load", "store" or "flush" ("" = all).
	Op string
}

// NewFilter returns a match-all filter.
func NewFilter() Filter { return Filter{Core: -1} }

// Match reports whether ev passes the filter.
func (f Filter) Match(ev machine.AccessEvent) bool {
	if f.Line != 0 && ev.Line != f.Line {
		return false
	}
	if f.Core >= 0 && ev.Core != f.Core {
		return false
	}
	if f.Op != "" && ev.Op != f.Op {
		return false
	}
	return true
}

// Recorder is a bounded event ring attached to a machine.
type Recorder struct {
	mach   *machine.Machine
	filter Filter
	cap    int

	ring  []machine.AccessEvent
	next  int
	wrap  bool
	Total uint64 // events matched (including overwritten ones)
}

// Attach installs a recorder on m, keeping the most recent capacity
// matching events. It replaces any previous observer; Detach restores
// none (observers do not stack).
func Attach(m *machine.Machine, capacity int, filter Filter) *Recorder {
	if capacity <= 0 {
		capacity = 4096
	}
	r := &Recorder{
		mach:   m,
		filter: filter,
		cap:    capacity,
		ring:   make([]machine.AccessEvent, 0, capacity),
	}
	m.SetAccessObserver(r.observe)
	return r
}

// Detach stops recording.
func (r *Recorder) Detach() { r.mach.SetAccessObserver(nil) }

func (r *Recorder) observe(ev machine.AccessEvent) {
	if !r.filter.Match(ev) {
		return
	}
	r.Total++
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, ev)
		return
	}
	r.ring[r.next] = ev
	r.next = (r.next + 1) % r.cap
	r.wrap = true
}

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []machine.AccessEvent {
	if !r.wrap {
		out := make([]machine.AccessEvent, len(r.ring))
		copy(out, r.ring)
		return out
	}
	out := make([]machine.AccessEvent, 0, r.cap)
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Len returns the retained event count.
func (r *Recorder) Len() int { return len(r.ring) }

// WriteTSV dumps the retained events.
func (r *Recorder) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "cycle\tthread\tcore\tline\top\tpath\tlatency"); err != nil {
		return err
	}
	for _, ev := range r.Events() {
		if _, err := fmt.Fprintf(w, "%d\t%d\t%d\t%#x\t%s\t%s\t%d\n",
			ev.Cycle, ev.Thread, ev.Core, ev.Line, ev.Op, ev.Path, ev.Latency); err != nil {
			return err
		}
	}
	return nil
}

// LineStats summarizes probe activity on one line — the signal an OS
// monitor (the §VIII-E defense) thresholds on.
type LineStats struct {
	Line    uint64
	Loads   int
	Stores  int
	Flushes int
	// FlushLoadPairs counts loads that directly follow a flush of the
	// same line — the flush+reload signature.
	FlushLoadPairs int
}

// ByLine aggregates the retained events per line, sorted by descending
// flush+reload pairs (most suspicious first).
func (r *Recorder) ByLine() []LineStats {
	agg := make(map[uint64]*LineStats)
	lastWasFlush := make(map[uint64]bool)
	for _, ev := range r.Events() {
		st := agg[ev.Line]
		if st == nil {
			st = &LineStats{Line: ev.Line}
			agg[ev.Line] = st
		}
		switch ev.Op {
		case "load":
			st.Loads++
			if lastWasFlush[ev.Line] {
				st.FlushLoadPairs++
			}
			lastWasFlush[ev.Line] = false
		case "store":
			st.Stores++
			lastWasFlush[ev.Line] = false
		case "flush":
			st.Flushes++
			lastWasFlush[ev.Line] = true
		}
	}
	out := make([]LineStats, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FlushLoadPairs != out[j].FlushLoadPairs {
			return out[i].FlushLoadPairs > out[j].FlushLoadPairs
		}
		return out[i].Line < out[j].Line
	})
	return out
}
