// Package interconnect models the transport fabric between caches: the
// on-chip path between private caches and the LLC, and the QPI-style
// point-to-point link between sockets. Each link has a base traversal
// latency plus a utilization-driven queuing component; the queuing term is
// how external noise (co-located memory-intensive workloads) couples into
// the covert channel's latency bands, widening them exactly where the
// paper observes (§VIII-C: remote E-state accesses vary most under load).
package interconnect

import (
	"fmt"

	"coherentleak/internal/sim"
)

// Link is one transport segment with congestion-dependent delay.
type Link struct {
	// Name identifies the link in reports ("ring0", "qpi", ...).
	Name string
	// BaseLatency is the uncontended one-way traversal time in cycles.
	BaseLatency sim.Cycles
	// ServiceCycles is the per-message occupancy used to convert offered
	// load into utilization.
	ServiceCycles sim.Cycles

	rng *sim.Rand

	// load tracks recent message departures for the sliding-window
	// utilization estimate: departures[head:] are the ones still inside
	// the window, oldest first.
	window     sim.Cycles // window width in cycles
	departures []sim.Cycles
	head       int

	// Stats
	Messages     uint64
	TotalQueuing sim.Cycles
}

// NewLink returns a link. rng drives queuing-tail draws and must be a
// dedicated stream (use World.Rand().Split()).
func NewLink(name string, base, service sim.Cycles, rng *sim.Rand) *Link {
	if rng == nil {
		panic("interconnect: nil rng")
	}
	return &Link{
		Name:          name,
		BaseLatency:   base,
		ServiceCycles: service,
		rng:           rng,
		window:        4096,
	}
}

// Utilization estimates the fraction of the recent window the link was
// busy, in [0, 1).
func (l *Link) Utilization(now sim.Cycles) float64 {
	l.expire(now)
	busy := sim.Cycles(len(l.departures)-l.head) * l.ServiceCycles
	u := float64(busy) / float64(l.window)
	if u > 0.95 {
		u = 0.95
	}
	return u
}

func (l *Link) expire(now sim.Cycles) {
	var cutoff sim.Cycles
	if now > l.window {
		cutoff = now - l.window
	}
	i := l.head
	for i < len(l.departures) && l.departures[i] < cutoff {
		i++
	}
	if i == len(l.departures) {
		l.departures, i = l.departures[:0], 0
	}
	l.head = i
}

// Traverse accounts one message crossing the link at virtual time now and
// returns the total latency: base + M/M/1-flavoured queuing delay drawn
// deterministically from the link's stream.
func (l *Link) Traverse(now sim.Cycles) sim.Cycles {
	u := l.Utilization(now)
	if len(l.departures) == cap(l.departures) && 2*l.head >= len(l.departures) {
		// Reuse the expired prefix rather than grow: each departure is
		// copied at most once per time the slice fills.
		l.departures = l.departures[:copy(l.departures, l.departures[l.head:])]
		l.head = 0
	}
	l.departures = append(l.departures, now)
	l.Messages++

	// Expected queue residency rises as u/(1-u); realize it as a
	// geometric number of extra service slots so the tail is integer-
	// valued and deterministic under the seed.
	q := sim.Cycles(0)
	if u > 0 {
		extra := l.rng.Geometric(1-u, 16)
		q = sim.Cycles(extra) * l.ServiceCycles
	}
	l.TotalQueuing += q
	return l.BaseLatency + q
}

// MeanQueuing returns average queuing delay per message, for reports.
func (l *Link) MeanQueuing() float64 {
	if l.Messages == 0 {
		return 0
	}
	return float64(l.TotalQueuing) / float64(l.Messages)
}

func (l *Link) String() string {
	return fmt.Sprintf("link %s: base=%d service=%d msgs=%d meanQ=%.1f",
		l.Name, l.BaseLatency, l.ServiceCycles, l.Messages, l.MeanQueuing())
}
