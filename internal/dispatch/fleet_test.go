package dispatch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"coherentleak/internal/harness"
)

// recObs is a thread-safe Observer recording every fleet callback.
type recObs struct {
	mu       sync.Mutex
	joined   []string
	left     []string // "name/reason"
	results  int
	failed   int
	reclaims int
	dups     int
	local    int
}

func (o *recObs) WorkerJoined(name string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.joined = append(o.joined, name)
}

func (o *recObs) WorkerLeft(name, reason string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.left = append(o.left, name+"/"+reason)
}

func (o *recObs) WorkerResult(name string, failed bool, seconds float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.results++
	if failed {
		o.failed++
	}
}

func (o *recObs) LeaseReclaimed(string)  { o.mu.Lock(); defer o.mu.Unlock(); o.reclaims++ }
func (o *recObs) DuplicateResult(string) { o.mu.Lock(); defer o.mu.Unlock(); o.dups++ }
func (o *recObs) LocalFallback()         { o.mu.Lock(); defer o.mu.Unlock(); o.local++ }

func (o *recObs) snapshot() (reclaims, dups, local int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.reclaims, o.dups, o.local
}

// spec builds a dispatchable cell.
func spec(cell string, idx int) harness.CellTask {
	plan := harness.Plan{Seed: 7, Sizing: harness.SizingQuick}
	return harness.CellTask{
		Plan:         plan,
		ConfigDigest: plan.ConfigDigest(),
		Artifact:     "art",
		Cell:         cell,
		Index:        idx,
	}
}

// quietOpts keeps both TTLs far away so the background reaper (which
// runs on wall-clock time) never interferes; tests inject faults by
// back-dating leases/workers and calling reapOnce directly.
func quietOpts(obs Observer) Options {
	return Options{LeaseTTL: time.Hour, WorkerTTL: time.Hour, Observer: obs}
}

type dispatchResult struct {
	out    harness.CellOutput
	worker string
	err    error
}

// dispatchAsync runs Dispatch in a goroutine and returns its result chan.
func dispatchAsync(ctx context.Context, f *Fleet, t harness.CellTask) <-chan dispatchResult {
	ch := make(chan dispatchResult, 1)
	go func() {
		out, worker, err := f.Dispatch(ctx, t)
		ch <- dispatchResult{out, worker, err}
	}()
	return ch
}

// wantHandedBack fails unless the dispatch returned the cell to the
// Runner: harness.ErrNotDispatched, no output, no worker.
func wantHandedBack(t *testing.T, r dispatchResult) {
	t.Helper()
	if !errors.Is(r.err, harness.ErrNotDispatched) || r.worker != "" || r.out.Rows != nil {
		t.Fatalf("dispatch = %+v, want harness.ErrNotDispatched", r)
	}
}

func waitDispatch(t *testing.T, ch <-chan dispatchResult) dispatchResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch did not settle")
		return dispatchResult{}
	}
}

// mustLease checks out one grant, failing if none arrives in time.
func mustLease(t *testing.T, f *Fleet, workerID string) *Grant {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g, err := f.Lease(ctx, workerID)
	if err != nil {
		t.Fatalf("lease for %s: %v", workerID, err)
	}
	if g == nil {
		t.Fatalf("lease for %s: long-poll expired without a grant", workerID)
	}
	return g
}

// backdateLease moves a held lease's deadline into the past.
func backdateLease(f *Fleet, leaseID string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if l := f.leases[leaseID]; l != nil {
		l.deadline = time.Now().Add(-time.Second)
	}
}

// backdateWorker makes a worker look silent for longer than WorkerTTL.
func backdateWorker(f *Fleet, workerID string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w := f.workers[workerID]; w != nil {
		w.lastSeen = time.Now().Add(-2 * f.opts.WorkerTTL)
	}
}

// TestDispatchWorkerRoundTrip: a parked long-poll receives the grant,
// the worker's result settles the dispatch, and the grant carries
// everything a remote executor needs to re-derive the cell.
func TestDispatchWorkerRoundTrip(t *testing.T) {
	obs := &recObs{}
	f := NewFleet(quietOpts(obs))
	defer f.Close()
	id, err := f.Register("w1")
	if err != nil {
		t.Fatal(err)
	}

	// Park the worker first so the grant flows through the waiter path.
	type leased struct {
		g   *Grant
		err error
	}
	leaseCh := make(chan leased, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g, err := f.Lease(ctx, id)
		leaseCh <- leased{g, err}
	}()

	task := spec("c0", 0)
	resCh := dispatchAsync(context.Background(), f, task)

	l := <-leaseCh
	if l.err != nil || l.g == nil {
		t.Fatalf("lease = %+v, %v", l.g, l.err)
	}
	g := l.g
	if g.Artifact != "art" || g.Cell != "c0" || g.Attempt != 1 ||
		g.Seed != 7 || g.Sizing != string(harness.SizingQuick) ||
		g.ConfigDigest != task.ConfigDigest || len(g.Config) == 0 {
		t.Fatalf("grant = %+v", g)
	}
	if _, err := f.Complete(id, Result{LeaseID: g.LeaseID, Rows: []string{"c0\tremote"}, Summary: []string{"s"}}); err != nil {
		t.Fatal(err)
	}

	r := waitDispatch(t, resCh)
	if r.err != nil || r.worker != "w1" || len(r.out.Rows) != 1 || r.out.Rows[0] != "c0\tremote" {
		t.Fatalf("dispatch = %+v", r)
	}
	if _, _, local := obs.snapshot(); local != 0 {
		t.Fatal("round trip should not touch the local fallback")
	}
	ws := f.Workers()
	if len(ws) != 1 || ws[0].Cells != 1 || ws[0].InFlight != 0 || ws[0].State != "idle" {
		t.Fatalf("workers = %+v", ws)
	}
}

// TestDispatchNoWorkersRunsLocal: an empty fleet hands the cell back
// for in-process execution.
func TestDispatchNoWorkersRunsLocal(t *testing.T) {
	obs := &recObs{}
	f := NewFleet(quietOpts(obs))
	defer f.Close()
	wantHandedBack(t, waitDispatch(t, dispatchAsync(context.Background(), f, spec("c0", 0))))
	if _, _, local := obs.snapshot(); local != 1 {
		t.Fatalf("local fallbacks = %d, want 1", local)
	}
}

// TestSlowWorkerLeaseReclaimedAndRetried is the slow-worker fault: a
// worker holds a cell past its lease deadline, the reaper reclaims it,
// another worker retries it, and the slow worker's late result is
// dropped as a duplicate.
func TestSlowWorkerLeaseReclaimedAndRetried(t *testing.T) {
	obs := &recObs{}
	f := NewFleet(quietOpts(obs))
	defer f.Close()
	slow, _ := f.Register("slow")
	fast, _ := f.Register("fast")

	resCh := dispatchAsync(context.Background(), f, spec("c0", 0))
	gSlow := mustLease(t, f, slow) // slow worker checks the cell out and stalls

	backdateLease(f, gSlow.LeaseID)
	f.reapOnce(time.Now())

	gFast := mustLease(t, f, fast) // reclaimed cell is re-leased
	if gFast.Cell != "c0" || gFast.Attempt != 2 {
		t.Fatalf("retry grant = %+v", gFast)
	}
	if _, err := f.Complete(fast, Result{LeaseID: gFast.LeaseID, Rows: []string{"c0\tfast"}}); err != nil {
		t.Fatal(err)
	}
	r := waitDispatch(t, resCh)
	if r.err != nil || r.worker != "fast" || r.out.Rows[0] != "c0\tfast" {
		t.Fatalf("dispatch = %+v", r)
	}

	// The slow worker finally finishes: its result must be dropped.
	dup, err := f.Complete(slow, Result{LeaseID: gSlow.LeaseID, Rows: []string{"c0\tslow"}})
	if err != nil || !dup {
		t.Fatalf("late result: dup=%v err=%v, want dup=true", dup, err)
	}
	reclaims, dups, local := obs.snapshot()
	if reclaims != 1 || dups != 1 || local != 0 {
		t.Fatalf("observer: reclaims=%d dups=%d local=%d", reclaims, dups, local)
	}
	for _, w := range f.Workers() {
		if w.Name == "slow" && w.Reclaims != 1 {
			t.Fatalf("slow worker reclaims = %d, want 1", w.Reclaims)
		}
	}
}

// TestWorkerKilledMidCell is the killed-worker fault: the worker stops
// heartbeating entirely, so worker expiry (not just the lease deadline)
// reclaims its cell, and a surviving worker completes it.
func TestWorkerKilledMidCell(t *testing.T) {
	obs := &recObs{}
	f := NewFleet(quietOpts(obs))
	defer f.Close()
	dead, _ := f.Register("dead")
	live, _ := f.Register("live")

	resCh := dispatchAsync(context.Background(), f, spec("c0", 0))
	g := mustLease(t, f, dead)

	backdateWorker(f, dead) // the process is gone: no polls, no heartbeats
	f.reapOnce(time.Now())

	if err := f.Heartbeat(dead); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("heartbeat after expiry: %v, want ErrUnknownWorker", err)
	}
	if got := f.Workers(); len(got) != 1 || got[0].Name != "live" {
		t.Fatalf("workers = %+v, want only live", got)
	}

	g2 := mustLease(t, f, live)
	if g2.Cell != "c0" || g2.Attempt != 2 {
		t.Fatalf("retry grant = %+v", g2)
	}
	if _, err := f.Complete(live, Result{LeaseID: g2.LeaseID, Rows: []string{"c0\tlive"}}); err != nil {
		t.Fatal(err)
	}
	r := waitDispatch(t, resCh)
	if r.err != nil || r.worker != "live" {
		t.Fatalf("dispatch = %+v", r)
	}

	// The dead worker's ghost reports back anyway: unknown worker, and
	// the grant it held no longer exists.
	if _, err := f.Complete(dead, Result{LeaseID: g.LeaseID}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("ghost result: %v, want ErrUnknownWorker", err)
	}
	obs.mu.Lock()
	left := strings.Join(obs.left, ",")
	obs.mu.Unlock()
	if !strings.Contains(left, "dead/heartbeat expired") {
		t.Fatalf("WorkerLeft events = %q", left)
	}
}

// TestMaxAttemptsFallsBackToLocal: after MaxAttempts worker executions
// are reclaimed, the cell is handed back to run in-process, so the job
// still completes.
func TestMaxAttemptsFallsBackToLocal(t *testing.T) {
	obs := &recObs{}
	opts := quietOpts(obs)
	opts.MaxAttempts = 2
	f := NewFleet(opts)
	defer f.Close()
	id, _ := f.Register("flaky")

	resCh := dispatchAsync(context.Background(), f, spec("c0", 0))
	for attempt := 1; attempt <= 2; attempt++ {
		g := mustLease(t, f, id)
		if g.Attempt != attempt {
			t.Fatalf("grant attempt = %d, want %d", g.Attempt, attempt)
		}
		backdateLease(f, g.LeaseID)
		f.reapOnce(time.Now())
	}
	wantHandedBack(t, waitDispatch(t, resCh))
	reclaims, _, local := obs.snapshot()
	if reclaims != 2 || local != 1 {
		t.Fatalf("observer: reclaims=%d local=%d, want 2 and 1", reclaims, local)
	}
}

// TestAllWorkersDeadFlushesQueue: queued cells whose whole fleet died
// are handed back instead of waiting for a worker that will never poll.
func TestAllWorkersDeadFlushesQueue(t *testing.T) {
	obs := &recObs{}
	f := NewFleet(quietOpts(obs))
	defer f.Close()
	id, _ := f.Register("only")

	resCh := dispatchAsync(context.Background(), f, spec("c0", 0))
	// Give the dispatch time to enqueue (the worker never polls).
	waitUntil(t, func() bool { return f.Stats().QueueDepth == 1 })

	backdateWorker(f, id)
	f.reapOnce(time.Now())

	wantHandedBack(t, waitDispatch(t, resCh))
	if _, _, local := obs.snapshot(); local != 1 {
		t.Fatalf("local fallbacks = %d, want 1", local)
	}
	if s := f.Stats(); s.LiveWorkers != 0 || s.QueueDepth != 0 || s.LeasesInFlight != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestWorkerFailureIsTerminal: a structured failure reported by a
// worker fails the cell without retry (the simulator is deterministic,
// so re-running elsewhere cannot change the outcome).
func TestWorkerFailureIsTerminal(t *testing.T) {
	obs := &recObs{}
	f := NewFleet(quietOpts(obs))
	defer f.Close()
	id, _ := f.Register("w1")

	resCh := dispatchAsync(context.Background(), f, spec("c0", 0))
	g := mustLease(t, f, id)
	if _, err := f.Complete(id, Result{LeaseID: g.LeaseID, Error: "panic: boom"}); err != nil {
		t.Fatal(err)
	}
	r := waitDispatch(t, resCh)
	if r.err == nil || !strings.Contains(r.err.Error(), "panic: boom") || r.worker != "w1" {
		t.Fatalf("dispatch = %+v, want worker failure", r)
	}
	reclaims, _, local := obs.snapshot()
	if reclaims != 0 || local != 0 {
		t.Fatalf("failure must not trigger retry: reclaims=%d local=%d", reclaims, local)
	}
}

// TestDispatchCancelAbandonsCell: a cancelled dispatch leaves no debris
// — the queued task is skipped by the next lease, and a later result
// for it is dropped as a duplicate.
func TestDispatchCancelAbandonsCell(t *testing.T) {
	obs := &recObs{}
	f := NewFleet(quietOpts(obs))
	defer f.Close()
	id, _ := f.Register("w1")

	ctx, cancel := context.WithCancel(context.Background())
	resCh := dispatchAsync(ctx, f, spec("c0", 0))
	waitUntil(t, func() bool { return f.Stats().QueueDepth == 1 })
	cancel()
	if r := waitDispatch(t, resCh); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("dispatch err = %v, want context.Canceled", r.err)
	}

	// The abandoned task is skipped: the long-poll drains the queue and
	// then parks until its (short) deadline.
	shortCtx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer scancel()
	g, err := f.Lease(shortCtx, id)
	if err != nil || g != nil {
		t.Fatalf("lease = %+v, %v, want no grant", g, err)
	}
	if s := f.Stats(); s.QueueDepth != 0 || s.LeasesInFlight != 0 {
		t.Fatalf("stats = %+v, want empty", s)
	}
}

// TestDeregisterWhileParkedReturnsUnknown: a worker whose registration
// vanishes while it is parked in a long-poll learns about it from the
// poll itself, so the client can re-register.
func TestDeregisterWhileParkedReturnsUnknown(t *testing.T) {
	f := NewFleet(quietOpts(nil))
	defer f.Close()
	id, _ := f.Register("w1")

	errCh := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := f.Lease(ctx, id)
		errCh <- err
	}()
	waitUntil(t, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.waiters) == 1
	})
	if err := f.Deregister(id); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrUnknownWorker) {
			t.Fatalf("parked lease err = %v, want ErrUnknownWorker", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked lease did not return")
	}
}

// TestCloseSettlesEverythingLocally: shutdown must not strand dispatch
// calls — queued and leased cells are all handed back.
func TestCloseSettlesEverythingLocally(t *testing.T) {
	obs := &recObs{}
	f := NewFleet(quietOpts(obs))
	id, _ := f.Register("w1")

	leasedCh := dispatchAsync(context.Background(), f, spec("c0", 0))
	g := mustLease(t, f, id) // c0 is held by the worker
	_ = g
	queuedCh := dispatchAsync(context.Background(), f, spec("c1", 1))
	waitUntil(t, func() bool { return f.Stats().QueueDepth == 1 })

	f.Close()
	for _, ch := range []<-chan dispatchResult{leasedCh, queuedCh} {
		wantHandedBack(t, waitDispatch(t, ch))
	}
	if _, _, local := obs.snapshot(); local != 2 {
		t.Fatalf("local fallbacks = %d, want 2", local)
	}
	if _, err := f.Register("late"); !errors.Is(err, errClosed) {
		t.Fatalf("register after close: %v", err)
	}
}

// waitUntil polls cond until it holds or the test times out.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestManyCellsManyWorkers floods the fleet and checks accounting: every
// cell settles exactly once with the right row.
func TestManyCellsManyWorkers(t *testing.T) {
	f := NewFleet(quietOpts(nil))
	defer f.Close()
	const workers, cells = 4, 32
	var ids []string
	for i := 0; i < workers; i++ {
		id, err := f.Register(fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Worker loops: lease, echo the cell name back, complete.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for ctx.Err() == nil {
				lctx, lcancel := context.WithTimeout(ctx, 100*time.Millisecond)
				g, err := f.Lease(lctx, id)
				lcancel()
				if err != nil || g == nil {
					continue
				}
				f.Complete(id, Result{LeaseID: g.LeaseID, Rows: []string{g.Cell + "\tdone"}})
			}
		}(id)
	}

	var chans []<-chan dispatchResult
	for i := 0; i < cells; i++ {
		chans = append(chans, dispatchAsync(context.Background(), f, spec(fmt.Sprintf("c%02d", i), i)))
	}
	for i, ch := range chans {
		r := waitDispatch(t, ch)
		want := fmt.Sprintf("c%02d\tdone", i)
		if r.err != nil || r.worker == "" || r.out.Rows[0] != want {
			t.Fatalf("cell %d = %+v, want row %q", i, r, want)
		}
	}
	cancel()
	wg.Wait()
	var total uint64
	for _, w := range f.Workers() {
		total += w.Cells
	}
	if total != cells {
		t.Fatalf("worker cell counters sum to %d, want %d", total, cells)
	}
}
