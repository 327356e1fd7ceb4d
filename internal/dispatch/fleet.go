// Package dispatch is the scale-out execution subsystem: a coordinator
// (Fleet) that farms harness cells out to a fleet of worker processes
// over a long-poll HTTP+JSON protocol, and the worker client that
// executes them against the same deterministic simulator.
//
// The Fleet implements harness.Dispatcher, so the existing Runner
// executes through it unchanged: the Runner keeps its deterministic
// assembly (results are keyed by cell index, so the TSV bytes cannot
// depend on which worker ran what), and the cell cache is consulted
// before dispatch, so cached cells never ship anywhere.
//
// Fault model: every dispatched cell is covered by a lease with a
// deadline. A worker that crashes, hangs, or falls off the network
// simply stops completing (and heartbeating); the reaper reclaims its
// leases and requeues the cells for other workers, bounded by
// MaxAttempts, after which the cell falls back to in-process execution
// so a job always completes. A late result for a reclaimed lease is
// dropped as a duplicate — the first accepted result wins, and because
// the simulator is deterministic, any accepted result is the right one.
// When no live workers are attached, dispatch degrades to the local
// pool (bounded by LocalParallel), so the fleet is always safe to leave
// enabled.
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"coherentleak/internal/harness"
)

// Observer receives fleet lifecycle callbacks for metrics. All methods
// may be called concurrently; implementations must be safe. A nil
// Observer disables observation.
type Observer interface {
	// WorkerJoined fires on registration.
	WorkerJoined(worker string)
	// WorkerLeft fires on deregistration or heartbeat expiry.
	WorkerLeft(worker, reason string)
	// WorkerResult fires when a worker's result is accepted.
	// Seconds measures dispatch latency: enqueue to accepted result.
	WorkerResult(worker string, failed bool, seconds float64)
	// LeaseReclaimed fires when a lease passes its deadline (or its
	// worker dies) and the cell is taken back.
	LeaseReclaimed(worker string)
	// DuplicateResult fires when a result arrives for a lease that no
	// longer exists (reclaimed, or its task already settled).
	DuplicateResult(worker string)
	// LocalFallback fires when a cell executes in-process because no
	// workers are live or its worker attempts were exhausted.
	LocalFallback()
}

// Options tunes a Fleet. Zero values pick production defaults.
type Options struct {
	// LeaseTTL is how long a worker holds a cell before the reaper
	// reclaims it; <=0 means 90s. Heartbeats keep a *worker* alive but
	// never extend a lease: a cell slower than the TTL is re-dispatched
	// and, once MaxAttempts is exhausted, runs locally.
	LeaseTTL time.Duration
	// WorkerTTL expires a worker that neither polls, heartbeats, nor
	// reports within it; <=0 means 3×LeaseTTL.
	WorkerTTL time.Duration
	// MaxAttempts bounds worker executions per cell before the local
	// fallback; <=0 means 3.
	MaxAttempts int
	// LocalParallel bounds concurrent in-process fallback executions;
	// <=0 means GOMAXPROCS.
	LocalParallel int
	// Observer receives metrics callbacks; nil discards them.
	Observer Observer
	// Log receives one line per fleet lifecycle event; nil discards.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 90 * time.Second
	}
	if o.WorkerTTL <= 0 {
		o.WorkerTTL = 3 * o.LeaseTTL
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.LocalParallel <= 0 {
		o.LocalParallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// ErrUnknownWorker rejects lease/result/heartbeat calls from a worker
// the fleet does not know (expired or a daemon restart); the worker
// client re-registers on it.
var ErrUnknownWorker = errors.New("dispatch: unknown worker")

// errClosed rejects operations after Close.
var errClosed = errors.New("dispatch: fleet closed")

// taskResult settles one dispatched cell.
type taskResult struct {
	out    harness.CellOutput
	worker string
	err    error
	// runLocal directs the waiting Dispatch call to execute the cell
	// in-process (attempts exhausted, or the fleet emptied out).
	runLocal bool
}

// task is one cell in flight through the fleet.
type task struct {
	spec     harness.CellTask
	attempt  int // worker executions so far
	enqueued time.Time
	result   chan taskResult // buffered 1; guarded by settled
	settled  bool            // result delivered or dispatch abandoned; fleet.mu
}

// lease is one task checked out by one worker.
type lease struct {
	id       string
	task     *task
	workerID string
	deadline time.Time
}

// workerState tracks one registered worker.
type workerState struct {
	id         string
	name       string
	registered time.Time
	lastSeen   time.Time
	inflight   int
	cells      uint64 // accepted ok results
	failures   uint64 // accepted failed results
	reclaims   uint64 // leases taken back from this worker
}

// waiter is a long-polling worker parked until a task arrives.
type waiter struct {
	workerID string
	ch       chan *Grant // buffered 1
}

// Grant is one leased cell, in the shape the HTTP layer serializes to a
// worker: the worker re-derives the cell from its own registry.
type Grant struct {
	LeaseID      string          `json:"leaseId"`
	Artifact     string          `json:"artifact"`
	Cell         string          `json:"cell"`
	Index        int             `json:"index"`
	Attempt      int             `json:"attempt"`
	Seed         uint64          `json:"seed"`
	Sizing       string          `json:"sizing"`
	Config       json.RawMessage `json:"config"`
	ConfigDigest string          `json:"configDigest"`
	LeaseMillis  int64           `json:"leaseMillis"`
}

// Fleet is the coordinator: it owns the worker registry, the pending
// task queue, and the lease table, and implements harness.Dispatcher.
type Fleet struct {
	opts     Options
	localSem chan struct{}

	mu         sync.Mutex
	workers    map[string]*workerState
	queue      []*task   // pending, FIFO; reclaimed tasks go to the front
	waiters    []*waiter // parked long-polls, FIFO
	leases     map[string]*lease
	workerSeq  int
	leaseSeq   int
	closed     bool
	reaperStop chan struct{}
}

// NewFleet starts a fleet coordinator with its lease reaper running.
func NewFleet(opts Options) *Fleet {
	opts = opts.withDefaults()
	f := &Fleet{
		opts:       opts,
		localSem:   make(chan struct{}, opts.LocalParallel),
		workers:    make(map[string]*workerState),
		leases:     make(map[string]*lease),
		reaperStop: make(chan struct{}),
	}
	interval := opts.LeaseTTL / 4
	if interval > time.Second {
		interval = time.Second
	}
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	go f.reaper(interval)
	return f
}

// Close stops the reaper and fails future worker calls. Pending
// dispatches settle via the local fallback.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	close(f.reaperStop)
	// Settle everything still in the fleet locally so no Dispatch call
	// is left hanging on a worker that will never answer.
	for _, t := range f.queue {
		f.settleLocked(t, taskResult{runLocal: true})
	}
	f.queue = nil
	for id, l := range f.leases {
		delete(f.leases, id)
		f.settleLocked(l.task, taskResult{runLocal: true})
	}
	for _, w := range f.waiters {
		close(w.ch)
	}
	f.waiters = nil
	f.mu.Unlock()
}

func (f *Fleet) logf(format string, args ...any) {
	if f.opts.Log != nil {
		fmt.Fprintf(f.opts.Log, "dispatch: "+format+"\n", args...)
	}
}

// observe invokes one Observer callback if an observer is attached.
func (f *Fleet) observe(fn func(Observer)) {
	if f.opts.Observer != nil {
		fn(f.opts.Observer)
	}
}

// Dispatch implements harness.Dispatcher: the cell is executed by a
// live worker when one is attached, with lease-based recovery, and
// in-process otherwise. It blocks until the cell settles or ctx ends.
func (f *Fleet) Dispatch(ctx context.Context, t harness.CellTask) (harness.CellOutput, string, error) {
	f.mu.Lock()
	if f.closed || len(f.workers) == 0 {
		f.mu.Unlock()
		return f.runLocal(ctx, t)
	}
	tk := &task{spec: t, enqueued: time.Now(), result: make(chan taskResult, 1)}
	f.enqueueLocked(tk, false)
	f.mu.Unlock()

	select {
	case res := <-tk.result:
		if res.runLocal {
			return f.runLocal(ctx, t)
		}
		return res.out, res.worker, res.err
	case <-ctx.Done():
		// Abandon: mark settled so a late lease result is dropped and
		// the queue entry is skipped when a worker would lease it.
		f.mu.Lock()
		tk.settled = true
		f.mu.Unlock()
		return harness.CellOutput{}, "", ctx.Err()
	}
}

// runLocal executes the cell in-process, bounded by LocalParallel.
func (f *Fleet) runLocal(ctx context.Context, t harness.CellTask) (harness.CellOutput, string, error) {
	f.observe(func(o Observer) { o.LocalFallback() })
	select {
	case f.localSem <- struct{}{}:
	case <-ctx.Done():
		return harness.CellOutput{}, "", ctx.Err()
	}
	defer func() { <-f.localSem }()
	out, err := t.Run()
	return out, "", err
}

// enqueueLocked hands the task to a parked waiter, or queues it.
// front=true puts a reclaimed task ahead of fresh ones.
func (f *Fleet) enqueueLocked(tk *task, front bool) {
	for len(f.waiters) > 0 {
		w := f.waiters[0]
		f.waiters = f.waiters[1:]
		ws := f.workers[w.workerID]
		if ws == nil {
			close(w.ch)
			continue
		}
		w.ch <- f.grantLocked(tk, ws)
		return
	}
	if front {
		f.queue = append([]*task{tk}, f.queue...)
	} else {
		f.queue = append(f.queue, tk)
	}
}

// grantLocked creates a lease binding the task to the worker.
func (f *Fleet) grantLocked(tk *task, w *workerState) *Grant {
	f.leaseSeq++
	l := &lease{
		id:       fmt.Sprintf("lease-%08d", f.leaseSeq),
		task:     tk,
		workerID: w.id,
		deadline: time.Now().Add(f.opts.LeaseTTL),
	}
	f.leases[l.id] = l
	w.inflight++
	tk.attempt++
	return &Grant{
		LeaseID:      l.id,
		Artifact:     tk.spec.Artifact,
		Cell:         tk.spec.Cell,
		Index:        tk.spec.Index,
		Attempt:      tk.attempt,
		Seed:         tk.spec.Plan.Seed,
		Sizing:       string(tk.spec.Plan.Sizing),
		Config:       marshalConfig(tk.spec.Plan),
		ConfigDigest: tk.spec.ConfigDigest,
		LeaseMillis:  f.opts.LeaseTTL.Milliseconds(),
	}
}

// settleLocked delivers a result to the waiting Dispatch call exactly
// once. Caller holds f.mu.
func (f *Fleet) settleLocked(tk *task, res taskResult) bool {
	if tk.settled {
		return false
	}
	tk.settled = true
	tk.result <- res
	return true
}

// Register admits a worker and returns its fleet ID.
func (f *Fleet) Register(name string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return "", errClosed
	}
	f.workerSeq++
	id := fmt.Sprintf("w-%06d", f.workerSeq)
	if name == "" {
		name = id
	}
	now := time.Now()
	f.workers[id] = &workerState{id: id, name: name, registered: now, lastSeen: now}
	f.observe(func(o Observer) { o.WorkerJoined(name) })
	f.logf("worker %s (%s) joined", name, id)
	return id, nil
}

// Deregister removes a worker; its leases are reclaimed immediately.
func (f *Fleet) Deregister(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.workers[id]
	if w == nil {
		return ErrUnknownWorker
	}
	f.removeWorkerLocked(w, "deregistered")
	return nil
}

// Heartbeat refreshes a worker's liveness (used by workers while a long
// cell executes, when no poll loop is touching the fleet).
func (f *Fleet) Heartbeat(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.workers[id]
	if w == nil {
		return ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	return nil
}

// Lease checks out the next pending cell for the worker, long-polling
// until ctx ends. A nil Grant with nil error means "no work yet".
func (f *Fleet) Lease(ctx context.Context, workerID string) (*Grant, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errClosed
	}
	w := f.workers[workerID]
	if w == nil {
		f.mu.Unlock()
		return nil, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	// Skip abandoned tasks sitting at the head of the queue.
	for len(f.queue) > 0 {
		tk := f.queue[0]
		f.queue = f.queue[1:]
		if tk.settled {
			continue
		}
		g := f.grantLocked(tk, w)
		f.mu.Unlock()
		return g, nil
	}
	wt := &waiter{workerID: workerID, ch: make(chan *Grant, 1)}
	f.waiters = append(f.waiters, wt)
	f.mu.Unlock()

	select {
	case g, ok := <-wt.ch:
		if !ok {
			// The waiter was detached: fleet shutdown, or this worker
			// was expired/deregistered while parked.
			f.mu.Lock()
			closed := f.closed
			f.mu.Unlock()
			if closed {
				return nil, errClosed
			}
			return nil, ErrUnknownWorker
		}
		return g, nil
	case <-ctx.Done():
		f.mu.Lock()
		for i, other := range f.waiters {
			if other == wt {
				f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
				break
			}
		}
		// A grant may have raced the timeout; it is already leased to
		// this worker, so hand it over rather than reclaim it.
		select {
		case g := <-wt.ch:
			if w := f.workers[workerID]; w != nil {
				w.lastSeen = time.Now()
			}
			f.mu.Unlock()
			return g, nil
		default:
		}
		f.mu.Unlock()
		return nil, nil
	}
}

// Result is a worker's report for one lease.
type Result struct {
	LeaseID    string   `json:"leaseId"`
	Rows       []string `json:"rows"`
	Summary    []string `json:"summary,omitempty"`
	WallMillis float64  `json:"wallMillis"`
	// Error carries a structured cell failure (panic or cell error on
	// the worker). A reported failure is terminal for the cell: the
	// simulator is deterministic, so retrying elsewhere cannot help.
	Error string `json:"error,omitempty"`
}

// Complete accepts a worker's result. A result for a reclaimed or
// settled lease reports duplicate=true and is dropped — the first
// accepted result won.
func (f *Fleet) Complete(workerID string, res Result) (duplicate bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.workers[workerID]
	if w == nil {
		return false, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	l := f.leases[res.LeaseID]
	if l == nil || l.task.settled {
		if l != nil {
			delete(f.leases, res.LeaseID)
			w.inflight--
		}
		f.observe(func(o Observer) { o.DuplicateResult(w.name) })
		f.logf("worker %s: dropped duplicate result for %s", w.name, res.LeaseID)
		return true, nil
	}
	delete(f.leases, res.LeaseID)
	w.inflight--
	tk := l.task
	tr := taskResult{worker: w.name}
	if res.Error != "" {
		w.failures++
		tr.err = fmt.Errorf("%s/%s: worker %s: %s", tk.spec.Artifact, tk.spec.Cell, w.name, res.Error)
	} else {
		w.cells++
		tr.out = harness.CellOutput{Rows: res.Rows, Summary: res.Summary}
	}
	f.settleLocked(tk, tr)
	f.observe(func(o Observer) {
		o.WorkerResult(w.name, res.Error != "", time.Since(tk.enqueued).Seconds())
	})
	return false, nil
}

// reaper periodically reclaims expired leases and expired workers.
func (f *Fleet) reaper(interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-f.reaperStop:
			return
		case <-tick.C:
			f.reapOnce(time.Now())
		}
	}
}

// reapOnce runs one reaper pass at the given instant (exported to the
// package's tests via fleet_test.go so fault injection is deterministic).
func (f *Fleet) reapOnce(now time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	// Expired workers first: their leases reclaim in one sweep.
	for _, w := range f.workers {
		if now.Sub(w.lastSeen) > f.opts.WorkerTTL {
			f.removeWorkerLocked(w, "heartbeat expired")
		}
	}
	// Then individually expired leases (worker alive but cell overdue).
	for id, l := range f.leases {
		if now.After(l.deadline) {
			delete(f.leases, id)
			if w := f.workers[l.workerID]; w != nil {
				w.inflight--
				w.reclaims++
			}
			f.reclaimLocked(l, "lease deadline passed")
		}
	}
	// A non-empty queue with no one to serve it runs locally.
	if len(f.workers) == 0 {
		f.flushQueueLocked()
	}
}

// removeWorkerLocked drops a worker and reclaims everything it held.
func (f *Fleet) removeWorkerLocked(w *workerState, reason string) {
	delete(f.workers, w.id)
	f.observe(func(o Observer) { o.WorkerLeft(w.name, reason) })
	f.logf("worker %s (%s) left: %s", w.name, w.id, reason)
	for id, l := range f.leases {
		if l.workerID == w.id {
			delete(f.leases, id)
			w.reclaims++
			f.reclaimLocked(l, reason)
		}
	}
	// Detach any parked long-poll for this worker.
	kept := f.waiters[:0]
	for _, wt := range f.waiters {
		if wt.workerID == w.id {
			close(wt.ch)
			continue
		}
		kept = append(kept, wt)
	}
	f.waiters = kept
	if len(f.workers) == 0 {
		f.flushQueueLocked()
	}
}

// reclaimLocked takes a cell back from a dead lease: requeue ahead of
// fresh work, or fall back to local execution once attempts run out.
func (f *Fleet) reclaimLocked(l *lease, reason string) {
	tk := l.task
	name := l.workerID
	if w := f.workers[l.workerID]; w != nil {
		name = w.name
	}
	f.observe(func(o Observer) { o.LeaseReclaimed(name) })
	f.logf("reclaimed %s/%s from %s (attempt %d/%d): %s",
		tk.spec.Artifact, tk.spec.Cell, name, tk.attempt, f.opts.MaxAttempts, reason)
	if tk.settled {
		return
	}
	if tk.attempt >= f.opts.MaxAttempts {
		f.settleLocked(tk, taskResult{runLocal: true})
		return
	}
	f.enqueueLocked(tk, true)
}

// flushQueueLocked settles every pending task locally (no live workers).
func (f *Fleet) flushQueueLocked() {
	for _, tk := range f.queue {
		f.settleLocked(tk, taskResult{runLocal: true})
	}
	f.queue = f.queue[:0]
}

// Stats is a point-in-time fleet snapshot for gauges.
type Stats struct {
	LiveWorkers    int
	LeasesInFlight int
	QueueDepth     int
}

// Stats samples the fleet for the metrics endpoint.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	pending := 0
	for _, tk := range f.queue {
		if !tk.settled {
			pending++
		}
	}
	return Stats{LiveWorkers: len(f.workers), LeasesInFlight: len(f.leases), QueueDepth: pending}
}

// WorkerView is one worker in the GET /v1/workers listing.
type WorkerView struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	State      string    `json:"state"` // "idle" or "busy"
	InFlight   int       `json:"inFlight"`
	Cells      uint64    `json:"cells"`
	Failures   uint64    `json:"failures"`
	Reclaims   uint64    `json:"reclaims"`
	Registered time.Time `json:"registered"`
	LastSeen   time.Time `json:"lastSeen"`
}

// Workers lists the live fleet in registration order.
func (f *Fleet) Workers() []WorkerView {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerView, 0, len(f.workers))
	for _, w := range f.workers {
		state := "idle"
		if w.inflight > 0 {
			state = "busy"
		}
		out = append(out, WorkerView{
			ID: w.id, Name: w.name, State: state, InFlight: w.inflight,
			Cells: w.cells, Failures: w.failures, Reclaims: w.reclaims,
			Registered: w.registered, LastSeen: w.lastSeen,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
