package service

import "sync"

// eventLog is the shared publish/subscribe core behind job and sweep
// progress streams: an append-only event history (replayed to late
// subscribers), a set of live subscriber channels, and the slow-
// subscriber policy — a subscriber whose buffer is full has stalled
// and is closed and dropped so it can never block a publisher. All
// methods are called under the owning Service's lock.
type eventLog[E any] struct {
	buffer  int
	events  []E
	subs    map[int]chan E
	nextSub int
	// onEvict counts dropped slow subscribers; nil discards.
	onEvict func()
}

func newEventLog[E any](buffer int, onEvict func()) *eventLog[E] {
	return &eventLog[E]{
		buffer:  buffer,
		subs:    make(map[int]chan E),
		onEvict: onEvict,
	}
}

// seq returns the sequence number the next published event will carry:
// events are numbered by history position.
func (l *eventLog[E]) seq() int { return len(l.events) }

// history returns a copy of everything published so far.
func (l *eventLog[E]) history() []E { return append([]E(nil), l.events...) }

// publish appends ev and fans it out. When terminal is set this is the
// stream's last event: every subscriber is closed after delivery.
func (l *eventLog[E]) publish(ev E, terminal bool) {
	l.events = append(l.events, ev)
	for id, ch := range l.subs {
		select {
		case ch <- ev:
		default:
			close(ch)
			delete(l.subs, id)
			if l.onEvict != nil {
				l.onEvict()
			}
		}
	}
	if terminal {
		for id, ch := range l.subs {
			close(ch)
			delete(l.subs, id)
		}
	}
}

// subscribe returns the history so far plus a live channel — nil when
// the stream has already ended (the caller passes done) — and the
// func that detaches it. mu is the lock the caller holds now; the
// detach func takes it, since it runs later.
func (l *eventLog[E]) subscribe(mu sync.Locker, done bool) (history []E, ch chan E, cancel func()) {
	history = l.history()
	if done {
		return history, nil, func() {}
	}
	ch = make(chan E, l.buffer)
	id := l.nextSub
	l.nextSub++
	l.subs[id] = ch
	return history, ch, func() {
		mu.Lock()
		defer mu.Unlock()
		if ch, ok := l.subs[id]; ok {
			close(ch)
			delete(l.subs, id)
		}
	}
}
