package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's
// side of the boundary.
type Span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"` // 0: no parent
	Name   string    `json:"name"`             // "<layer>.<operation>"
	Req    string    `json:"req,omitempty"`    // job, sweep, worker or cell key
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Layer is the span name's first dotted element.
func (s Span) Layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s Span) dur() time.Duration { return s.End.Sub(s.Start) }

// Recorder keeps spans in memory. A nil *Recorder records nothing, so
// untraced runs pay one nil check per boundary.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add records a finished span and returns its ID (0 when r is nil).
func (r *Recorder) Add(parent int, name, req string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// adopt gives every parentless span named child a parent: the shortest
// span named one of parents whose interval contains it. Store calls
// happen inside a job's execution but the store cannot know which
// job's span is open, so the link is made by time afterwards.
func adopt(spans []Span, child string, parents ...string) {
	for i := range spans {
		c := &spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		best := -1
		for j, p := range spans {
			if !contains(parents, p.Name) || p.Start.After(c.Start) || p.End.Before(c.End) {
				continue
			}
			if best < 0 || p.dur() < spans[best].dur() {
				best = j
			}
		}
		if best >= 0 {
			c.Parent = spans[best].ID
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// selfTimes folds spans into per-layer self time: each span's duration
// minus the part of its interval covered by its children. Children may
// nest, overlap each other or spill past their parent; only the union
// of their intervals clipped to the parent is subtracted, so no instant
// is counted twice or below zero.
func selfTimes(spans []Span) map[string]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer()] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to parent.
func covered(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeSpans saves the spans as JSON for offline inspection.
func writeSpans(path string, spans []Span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
