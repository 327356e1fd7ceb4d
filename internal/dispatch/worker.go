package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"coherentleak/internal/client"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
)

// WorkerOptions configures a worker client.
type WorkerOptions struct {
	// Server is the coordinator's base URL, e.g. http://localhost:8080.
	Server string
	// Name identifies the worker in /v1/workers and SSE events; empty
	// lets the fleet assign one.
	Name string
	// Registry resolves leased (artifact, cell) names back to runnable
	// cells. It must match the coordinator's registry: a cell the worker
	// cannot resolve is reported as a structured failure.
	Registry *harness.Registry
	// Slots is the number of cells executed concurrently; <=0 means 1.
	Slots int
	// PollWait caps each long-poll; <=0 uses the server's suggestion.
	PollWait time.Duration
	// HTTPClient overrides the transport (tests); nil uses a client
	// with no overall timeout (long-polls hold connections open).
	HTTPClient *http.Client
	// Log receives one line per worker lifecycle event; nil discards.
	Log io.Writer
}

// Worker pulls leased cells from a Fleet coordinator over HTTP,
// executes them against the local registry, and reports results or
// structured failures. One Worker drives Slots concurrent executors.
type Worker struct {
	opts   WorkerOptions
	client client.Client

	mu       sync.Mutex
	id       string
	pollWait time.Duration
	ttl      time.Duration
}

// NewWorker builds a worker client; Run drives it.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Server == "" {
		return nil, errors.New("dispatch: WorkerOptions.Server is required")
	}
	if opts.Registry == nil {
		return nil, errors.New("dispatch: WorkerOptions.Registry is required")
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	return &Worker{
		opts:   opts,
		client: client.Client{Server: opts.Server, HTTP: opts.HTTPClient},
	}, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Log != nil {
		fmt.Fprintf(w.opts.Log, "worker: "+format+"\n", args...)
	}
}

// Run registers and serves leases until ctx ends, then deregisters.
// Transient coordinator failures retry with backoff; a 404 (the fleet
// forgot us — expiry or daemon restart) re-registers.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	hbCtx, hbCancel := context.WithCancel(ctx)
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		w.heartbeatLoop(hbCtx)
	}()

	var wg sync.WaitGroup
	for i := 0; i < w.opts.Slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.serveLeases(ctx)
		}()
	}
	wg.Wait()
	hbCancel()
	hbDone.Wait()
	w.deregister()
	return ctx.Err()
}

// register (or re-register) with the coordinator, retrying until ctx
// ends.
func (w *Worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		var resp registerResponse
		_, err := w.client.Call(ctx, http.MethodPost, "/v1/workers", registerRequest{Name: w.opts.Name}, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.pollWait = time.Duration(resp.PollMillis) * time.Millisecond
			if w.opts.PollWait > 0 {
				w.pollWait = w.opts.PollWait
			}
			w.ttl = time.Duration(resp.WorkerTTLMillis) * time.Millisecond
			w.mu.Unlock()
			w.logf("registered as %s with %s", resp.WorkerID, w.opts.Server)
			return nil
		}
		w.logf("register: %v (retrying in %s)", err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// serveLeases is one slot's poll-execute-report loop.
func (w *Worker) serveLeases(ctx context.Context) {
	backoff := 100 * time.Millisecond
	for ctx.Err() == nil {
		w.mu.Lock()
		wait := w.pollWait
		w.mu.Unlock()
		if wait <= 0 {
			wait = defaultPollWait
		}
		var grant Grant
		status, err := w.client.Call(ctx, http.MethodPost, "/v1/workers/"+w.workerID()+"/lease",
			leaseRequest{WaitMillis: wait.Milliseconds()}, &grant)
		switch {
		case ctx.Err() != nil:
			return
		case status == http.StatusNotFound:
			// The fleet forgot us; re-register and carry on.
			if w.register(ctx) != nil {
				return
			}
			continue
		case err != nil:
			w.logf("lease: %v (retrying in %s)", err, backoff)
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff < 5*time.Second {
				backoff *= 2
			}
			continue
		case status == http.StatusNoContent:
			backoff = 100 * time.Millisecond
			continue
		}
		backoff = 100 * time.Millisecond
		res := w.execute(&grant)
		w.report(ctx, res)
	}
}

// execute resolves the leased cell against the registry and runs it.
// Any failure — unknown artifact or cell, config mismatch, cell error,
// panic — becomes a structured failure in the result.
func (w *Worker) execute(g *Grant) Result {
	res := Result{LeaseID: g.LeaseID}
	begin := time.Now()
	cell, err := w.resolve(g)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	out, err := harness.RunCell(cell)
	res.WallMillis = float64(time.Since(begin)) / float64(time.Millisecond)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Rows = out.Rows
	res.Summary = out.Summary
	return res
}

// resolve maps a grant to a runnable cell via the local registry.
func (w *Worker) resolve(g *Grant) (harness.Cell, error) {
	var zero harness.Cell
	art, ok := w.opts.Registry.Get(g.Artifact)
	if !ok {
		return zero, fmt.Errorf("unknown artifact %q (worker registry out of sync)", g.Artifact)
	}
	var cfg machine.Config
	if err := json.Unmarshal(g.Config, &cfg); err != nil {
		return zero, fmt.Errorf("decode config: %v", err)
	}
	// The config is not validated here: that is the coordinator's
	// responsibility (and test registries legitimately run with minimal
	// configs that full validation would reject).
	plan := harness.Plan{Cfg: cfg, Seed: g.Seed, Sizing: harness.Sizing(g.Sizing)}
	if d := plan.ConfigDigest(); d != g.ConfigDigest {
		return zero, fmt.Errorf("config digest mismatch: coordinator %s, worker %s", g.ConfigDigest, d)
	}
	cells, err := art.Cells(plan)
	if err != nil {
		return zero, fmt.Errorf("planning cells for %s: %v", g.Artifact, err)
	}
	for _, c := range cells {
		if c.Name == g.Cell {
			return c, nil
		}
	}
	return zero, fmt.Errorf("unknown cell %s/%s (worker registry out of sync)", g.Artifact, g.Cell)
}

// report delivers a result, retrying transient failures so a finished
// cell is not lost to one dropped connection. A 404 means the lease's
// worker is gone; re-register and drop the result (the lease was
// reclaimed with the worker, so the cell is already requeued).
func (w *Worker) report(ctx context.Context, res Result) {
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < 5; attempt++ {
		var ack resultResponse
		status, err := w.client.Call(ctx, http.MethodPost, "/v1/workers/"+w.workerID()+"/result", res, &ack)
		switch {
		case ctx.Err() != nil:
			return
		case status == http.StatusNotFound:
			w.logf("result for %s dropped: fleet forgot this worker", res.LeaseID)
			w.register(ctx)
			return
		case err == nil:
			if ack.Duplicate {
				w.logf("result for %s was a duplicate (lease reclaimed)", res.LeaseID)
			}
			return
		}
		w.logf("report: %v (retrying in %s)", err, backoff)
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// heartbeatLoop keeps the worker alive while all slots are busy
// executing long cells (polling itself refreshes liveness otherwise).
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		ttl := w.ttl
		w.mu.Unlock()
		interval := ttl / 3
		if interval <= 0 {
			interval = 5 * time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
		status, err := w.client.Call(ctx, http.MethodPost, "/v1/workers/"+w.workerID()+"/heartbeat", nil, nil)
		if status == http.StatusNotFound {
			// Re-registration is the poll loop's job; just note it.
			w.logf("heartbeat: fleet forgot this worker")
		} else if err != nil && ctx.Err() == nil {
			w.logf("heartbeat: %v", err)
		}
	}
}

// deregister tells the fleet we are leaving, retrying a transient
// failure with backoff for up to 5 s: a fleet that never hears it
// counts the worker live until its TTL. A 404 means the fleet has
// already forgotten us.
func (w *Worker) deregister() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for backoff := 50 * time.Millisecond; ; backoff = min(2*backoff, time.Second) {
		status, err := w.client.Call(ctx, http.MethodDelete, "/v1/workers/"+w.workerID(), nil, nil)
		if err == nil || status == http.StatusNotFound {
			return
		}
		if !client.Retryable(err) || ctx.Err() != nil {
			w.logf("deregister: %v (giving up; the fleet drops this worker at its TTL)", err)
			return
		}
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
	}
}
