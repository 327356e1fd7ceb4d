// Package service is the long-lived experiment daemon layered over the
// internal/harness engine: an HTTP JSON API that exposes the artifact
// registry, accepts parameterized runs onto a bounded job queue with
// admission control and per-job cancellation, streams per-cell progress
// over Server-Sent Events, serves assembled TSV and replay-JSON
// results, and shares one cell store across every job so a repeated
// request returns in milliseconds. Submit looks a job's cells up in the
// store first: a job the store holds entirely finishes without waiting
// for an executor, and only jobs with cells to execute queue.
// cmd/cohsimd wraps it in a binary; every future scaling layer
// (sharding, batching, multi-backend dispatch) is meant to plug in
// behind this API.
//
// Every job and sweep belongs to the tenant that submitted it, and
// every method that reads, cancels or follows one takes that tenant:
// the record is resolved by one owner-checked lookup (jobOf, sweepOf),
// so another tenant's ID is indistinguishable from an unknown one.
// Without a keys file every caller is the registry's anonymous tenant.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"coherentleak/internal/dispatch"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
	"coherentleak/internal/store"
	"coherentleak/internal/tenant"
)

// Options configures a Service. Zero values pick sane defaults.
type Options struct {
	// Registry supplies the runnable artifacts. Required. Every job
	// starts from machine.DefaultConfig() before its JSON overrides.
	Registry *harness.Registry
	// Store is the cell cache every job shares; nil creates an empty
	// store.NewMemory(). A store.Disk persists each entry as it is
	// written, so it survives restarts and several cohsimd replicas
	// pointed at one directory share hits.
	Store store.CellStore
	// Tenants enables API-key authentication, per-tenant quotas and
	// weighted fair queueing. Nil means anonymous mode: every caller is
	// one unbounded tenant and behavior matches the pre-tenant daemon.
	Tenants *tenant.Registry
	// QueueDepth bounds the admission queue; <=0 means 16.
	QueueDepth int
	// Executors bounds the jobs that execute cells concurrently; <=0
	// means 1 (cells within a job already parallelize). A job whose
	// cells the store holds entirely needs no executor.
	Executors int
	// CellParallel bounds the cells executing in-process per job; <=0
	// means GOMAXPROCS. Cells leased to fleet workers do not count.
	CellParallel int
	// DefaultTimeout caps jobs that do not request one; <=0 means 15m.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts; <=0 means 2h.
	MaxTimeout time.Duration
	// ResultsDir, when set, additionally writes every finished job's
	// TSVs and replay archives under <ResultsDir>/<jobID>/ via the
	// harness sinks (results are always downloadable over HTTP).
	ResultsDir string
	// DefaultSeed seeds jobs whose requests omit one (the daemon passes
	// experiments.DefaultSeed so service runs match the CLI).
	DefaultSeed uint64
	// DisableDispatch runs every cell in-process and unmounts the
	// /v1/workers routes. Default off: cells are leased to the worker
	// fleet whenever a worker is live and run in-process otherwise.
	// The worker routes take no API key, so anyone who can reach them
	// can lease cells and post rows into the shared store; with
	// untrusted clients, set this or keep /v1/workers behind a network
	// boundary.
	DisableDispatch bool
	// DispatchLeaseTTL is how long a worker holds one cell before the
	// lease reclaims; <=0 means the dispatch default (90s).
	DispatchLeaseTTL time.Duration
	// DispatchWorkerTTL expires a silent worker; <=0 means 3×lease TTL.
	DispatchWorkerTTL time.Duration
	// DispatchMaxAttempts bounds worker executions per cell before the
	// in-process fallback; <=0 means the dispatch default (3).
	DispatchMaxAttempts int
	// MaxSweeps bounds concurrently running sweeps; <=0 means 2.
	// Submitted sweeps beyond the bound queue.
	MaxSweeps int
	// SweepInFlight bounds concurrently running points per sweep; <=0
	// means the engine default (4).
	SweepInFlight int
	// Log receives one line per lifecycle event; nil discards.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Store == nil {
		o.Store = store.NewMemory()
	}
	if o.Tenants == nil {
		o.Tenants = tenant.Open()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.Executors <= 0 {
		o.Executors = 1
	}
	if o.CellParallel <= 0 {
		o.CellParallel = runtime.GOMAXPROCS(0)
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 15 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 2 * time.Hour
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 2
	}
	return o
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submit when the bounded queue is at
	// capacity (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrQuota rejects a submit that would push the caller's tenant past
	// one of its quotas (HTTP 429 + Retry-After derived from that
	// tenant's own backlog).
	ErrQuota = errors.New("tenant quota exceeded")
	// ErrDraining rejects submits during graceful shutdown (HTTP 503).
	ErrDraining = errors.New("service: shutting down")
	// errCancelled is the cancel cause for client cancellation.
	errCancelled = errors.New("cancelled by client")
	// errShutdown is the cancel cause for forced shutdown.
	errShutdown = errors.New("server shutting down")
)

// Service owns the job table, the bounded queue, the executor pool,
// and the worker fleet coordinator.
type Service struct {
	opts    Options
	metrics *Metrics
	// fleet farms cells out to attached cohsim-worker processes; nil
	// when Options.DisableDispatch is set.
	fleet *dispatch.Fleet

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	queue    *tenant.FairQueue[*Job]
	queued   int // jobs admitted but not yet picked up
	running  int
	draining bool
	seq      int
	// usage tracks per-tenant live load for quota checks and the
	// /v1/tenants/self endpoint. Lock order is always s.mu before the
	// fair queue's internal lock, never the reverse.
	usage map[string]*tenantUsage

	// Sweep table, mirrored after the job table. sweepGate bounds the
	// number of sweeps running at once; submitted sweeps beyond the
	// bound stay queued on it.
	sweeps        map[string]*Sweep
	sweepOrder    []string
	sweepSeq      int
	sweepsRunning int
	sweepGate     chan struct{}
	sweepWG       sync.WaitGroup

	wg sync.WaitGroup
}

// New starts a Service with its executor pool running.
func New(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	if opts.Registry == nil {
		return nil, errors.New("service: Options.Registry is required")
	}
	s := &Service{
		opts:      opts,
		metrics:   NewMetrics(),
		jobs:      make(map[string]*Job),
		queue:     tenant.NewFairQueue[*Job](opts.QueueDepth),
		usage:     make(map[string]*tenantUsage),
		sweeps:    make(map[string]*Sweep),
		sweepGate: make(chan struct{}, opts.MaxSweeps),
	}
	if !opts.DisableDispatch {
		s.fleet = dispatch.NewFleet(dispatch.Options{
			LeaseTTL:    opts.DispatchLeaseTTL,
			WorkerTTL:   opts.DispatchWorkerTTL,
			MaxAttempts: opts.DispatchMaxAttempts,
			Observer:    s.metrics,
			Log:         opts.Log,
		})
	}
	for i := 0; i < opts.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

// Fleet exposes the worker-fleet coordinator (nil when dispatch is
// disabled). Tests and the HTTP layer reach it here.
func (s *Service) Fleet() *dispatch.Fleet { return s.fleet }

// tenantUsage is one tenant's live load, guarded by s.mu.
type tenantUsage struct {
	queued  int // jobs admitted and waiting for an executor
	running int // jobs executing
	// pointsPending counts sweep points expanded but not yet finished
	// across the tenant's active sweeps (the MaxQueuedPoints quota).
	pointsPending int
	sweepsActive  int
}

// usageLocked returns (creating on first use) a tenant's usage record.
// Caller holds s.mu.
func (s *Service) usageLocked(name string) *tenantUsage {
	u, ok := s.usage[name]
	if !ok {
		u = &tenantUsage{}
		s.usage[name] = u
	}
	return u
}

func (s *Service) logf(format string, args ...any) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, format+"\n", args...)
	}
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	// Artifacts lists registry names; empty means every artifact.
	Artifacts []string `json:"artifacts"`
	// Seed pins experiment randomness; nil uses the registry default
	// the caller passes via DefaultSeed below.
	Seed *uint64 `json:"seed"`
	// Sizing is "quick" or "full" (default "full", matching the CLI).
	Sizing string `json:"sizing"`
	// Config holds partial machine.Config overrides, merged over the
	// service's base config field-by-field (JSON semantics). Unknown
	// fields are rejected.
	Config json.RawMessage `json:"config"`
	// TimeoutSeconds caps the run; 0 uses the service default.
	TimeoutSeconds float64 `json:"timeoutSeconds"`
}

// buildPlan resolves a submit request into a validated plan + artifact
// selection. Any error here is a client error (HTTP 400).
func (s *Service) buildPlan(req *SubmitRequest) (harness.Plan, []*harness.Artifact, time.Duration, error) {
	var zero harness.Plan
	arts, err := s.opts.Registry.Select(req.Artifacts)
	if err != nil {
		return zero, nil, 0, err
	}
	cfg := machine.DefaultConfig()
	if len(req.Config) > 0 {
		if err := decodeStrict(bytes.NewReader(req.Config), &cfg); err != nil {
			return zero, nil, 0, fmt.Errorf("config overrides: %w", err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return zero, nil, 0, fmt.Errorf("config overrides: %w", err)
	}
	var sizing harness.Sizing
	switch req.Sizing {
	case "", string(harness.SizingFull):
		sizing = harness.SizingFull
	case string(harness.SizingQuick):
		sizing = harness.SizingQuick
	default:
		return zero, nil, 0, fmt.Errorf("sizing %q: want %q or %q", req.Sizing, harness.SizingQuick, harness.SizingFull)
	}
	seed := s.opts.DefaultSeed
	if req.Seed != nil {
		seed = *req.Seed
	}
	timeout := s.opts.DefaultTimeout
	if req.TimeoutSeconds < 0 {
		return zero, nil, 0, fmt.Errorf("timeoutSeconds %v: must be >= 0", req.TimeoutSeconds)
	}
	if req.TimeoutSeconds > 0 {
		// Clamp in seconds: converting first would wrap a huge request
		// to a negative Duration that slips under the clamp.
		timeout = s.opts.MaxTimeout
		if req.TimeoutSeconds < s.opts.MaxTimeout.Seconds() {
			timeout = time.Duration(req.TimeoutSeconds * float64(time.Second))
		}
	}
	return harness.Plan{Cfg: cfg, Seed: seed, Sizing: sizing}, arts, timeout, nil
}

// Submit validates and admits a job owned by tn. Its cells are looked
// up in the store first. A job the store holds entirely starts at once
// on its own goroutine: it needs no executor, only the entries already
// in hand. Any other job lands on the tenant's fair-queue lane, so one
// tenant's backlog cannot head-of-line-block another's. Both count
// against the tenant's MaxInFlight quota. ErrQueueFull, ErrQuota and
// ErrDraining are admission failures; other errors are invalid
// requests.
func (s *Service) Submit(tn *tenant.Tenant, req *SubmitRequest) (*Job, error) {
	plan, arts, timeout, err := s.buildPlan(req)
	if err != nil {
		return nil, err
	}
	batch, err := (&harness.Runner{Manifest: s.opts.Store}).Prepare(plan, arts)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(arts))
	for i, a := range arts {
		names[i] = a.Name
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	u := s.usageLocked(tn.Name)
	if tn.MaxInFlight > 0 && u.queued+u.running >= tn.MaxInFlight {
		s.metrics.JobRejected()
		s.metrics.TenantJobRejected(tn.Name, "quota")
		return nil, fmt.Errorf("%w: tenant %s has %d job(s) in flight (maxInFlight %d)",
			ErrQuota, tn.Name, u.queued+u.running, tn.MaxInFlight)
	}
	s.seq++
	job := &Job{
		ID:        fmt.Sprintf("job-%06d", s.seq),
		Tenant:    tn.Name,
		Artifacts: names,
		Plan:      plan,
		Timeout:   timeout,
		Created:   time.Now(),
		state:     StateQueued,
		batch:     batch,
		results:   make(map[string]*harness.ArtifactResult),
		stream:    newEventLog[Event](subEventBuffer, s.metrics.SSEEvicted),
		done:      make(chan struct{}),
	}
	if batch.Pending() > 0 {
		if err := s.queue.Push(tn.Name, tn.Weight, job); err != nil {
			s.metrics.JobRejected()
			s.metrics.TenantJobRejected(tn.Name, "queue-full")
			return nil, ErrQueueFull
		}
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.queued++
	u.queued++
	s.metrics.JobAccepted()
	s.metrics.TenantJobAccepted(tn.Name)
	job.publish(Event{Type: "state", State: StateQueued})
	s.logf("%s queued (tenant %s): %v seed=%d sizing=%s timeout=%s", job.ID, tn.Name, names, plan.Seed, plan.Sizing, timeout)
	if batch.Pending() == 0 {
		// Shutdown sets draining under s.mu before it waits on s.wg, so
		// this Add cannot race its Wait.
		ctx, _ := s.startLocked(job)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.runJob(ctx, job)
		}()
	}
	return job, nil
}

// RetryAfterTenant estimates how long a rejected tenant should wait
// before resubmitting: the mean job duration scaled by that tenant's
// own backlog, clamped to [1s, 60s]. The global queue is the wrong
// measure: under fair queueing a lightly-loaded tenant rejected
// because another tenant filled the queue drains near the front, so
// telling it to wait for the whole global backlog would be wildly
// pessimistic.
func (s *Service) RetryAfterTenant(name string) time.Duration {
	s.mu.Lock()
	u := s.usageLocked(name)
	backlog := u.queued + u.running
	s.mu.Unlock()
	avg := s.metrics.AvgJobSeconds()
	if avg <= 0 {
		avg = 1
	}
	est := time.Duration(avg * float64(backlog) / float64(s.opts.Executors) * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// QueueDepth reports one tenant's queued (not yet running) jobs — the
// number a rejected client sees in its 429 body.
func (s *Service) QueueDepth(tenantName string) int {
	return s.queue.Depth(tenantName)
}

// TenantUsageView is a tenant's live load in /v1/tenants/self.
type TenantUsageView struct {
	JobsQueued    int `json:"jobsQueued"`
	JobsRunning   int `json:"jobsRunning"`
	PointsPending int `json:"pointsPending"`
	SweepsActive  int `json:"sweepsActive"`
}

// TenantSelfView is the GET /v1/tenants/self body: the caller's
// identity, configured quota and live usage. The API key is never
// echoed back.
type TenantSelfView struct {
	Name        string          `json:"name"`
	Weight      int             `json:"weight"`
	AuthEnabled bool            `json:"authEnabled"`
	Quotas      tenant.Quotas   `json:"quotas"`
	Usage       TenantUsageView `json:"usage"`
}

// TenantSelf renders one tenant's quota and live usage.
func (s *Service) TenantSelf(tn *tenant.Tenant) TenantSelfView {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.usageLocked(tn.Name)
	return TenantSelfView{
		Name:        tn.Name,
		Weight:      tn.Weight,
		AuthEnabled: s.opts.Tenants.Enabled(),
		Quotas:      tn.Quotas,
		Usage: TenantUsageView{
			JobsQueued:    u.queued,
			JobsRunning:   u.running,
			PointsPending: u.pointsPending,
			SweepsActive:  u.sweepsActive,
		},
	}
}

// jobOf returns job id if tn owns it. A job owned by another tenant
// reports not-found, indistinguishable from a job that does not exist,
// so IDs cannot be probed across tenants. Caller holds s.mu.
func (s *Service) jobOf(tn *tenant.Tenant, id string) (*Job, bool) {
	j, ok := s.jobs[id]
	if !ok || j.Tenant != tn.Name {
		return nil, false
	}
	return j, true
}

// JobViews lists tn's jobs in submission order.
func (s *Service) JobViews(tn *tenant.Tenant) []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j.Tenant == tn.Name {
			out = append(out, j.view())
		}
	}
	return out
}

// JobView renders one of tn's jobs.
func (s *Service) JobView(tn *tenant.Tenant, id string) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobOf(tn, id)
	if !ok {
		return View{}, false
	}
	return j.view(), true
}

// Result returns one assembled artifact of a job tn owns.
func (s *Service) Result(tn *tenant.Tenant, id, artifact string) (*harness.ArtifactResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobOf(tn, id)
	if !ok {
		return nil, false
	}
	res, ok := j.results[artifact]
	return res, ok
}

// Cancel cancels a queued or running job tn owns. It reports whether
// the job exists; cancelling a terminal job is a no-op.
func (s *Service) Cancel(tn *tenant.Tenant, id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobOf(tn, id)
	if !ok {
		return false
	}
	switch j.state {
	case StateQueued:
		// The executor will observe the terminal state and skip it.
		s.finishLocked(j, StateCancelled, "cancelled by client")
	case StateRunning:
		j.cancel(errCancelled)
	}
	return true
}

// Subscribe returns the event history and live channel (nil channel
// when the job is terminal) of a job tn owns, plus an unsubscribe func.
func (s *Service) Subscribe(tn *tenant.Tenant, id string) (history []Event, ch chan Event, cancel func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobOf(tn, id)
	if !ok {
		return nil, nil, nil, false
	}
	history, ch, cancel = j.stream.subscribe(&s.mu, j.state.Terminal())
	return history, ch, cancel, true
}

// Gauges samples point-in-time values for the metrics endpoint.
func (s *Service) Gauges() Gauges {
	s.mu.Lock()
	g := Gauges{
		JobsQueued:       s.queued,
		JobsRunning:      s.running,
		QueueCapacity:    s.opts.QueueDepth,
		CacheEntries:     s.opts.Store.Len(),
		SweepsRunning:    s.sweepsRunning,
		TenantQueueDepth: s.queue.Depths(),
	}
	for _, id := range s.sweepOrder {
		if s.sweeps[id].state == StateQueued {
			g.SweepsQueued++
		}
	}
	s.mu.Unlock()
	if s.fleet != nil {
		st := s.fleet.Stats()
		g.WorkersLive = st.LiveWorkers
		g.LeasesInFlight = st.LeasesInFlight
		g.DispatchQueueDepth = st.QueueDepth
	}
	return g
}

// Draining reports whether shutdown has begun (healthz turns 503).
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// finishLocked moves a job to a terminal state. Caller holds s.mu.
func (s *Service) finishLocked(j *Job, state State, errMsg string) {
	if j.state.Terminal() {
		return
	}
	if j.started.IsZero() {
		j.started = j.Created
	}
	j.state = state
	j.errMsg = errMsg
	j.batch = nil // its cells and held entries are no longer needed
	j.finished = time.Now()
	close(j.done)
	j.publish(Event{Type: "state", State: state, Error: errMsg})
	s.metrics.JobFinished(state, j.finished.Sub(j.started).Seconds())
	s.logf("%s %s%s", j.ID, state, suffixIf(errMsg))
}

func suffixIf(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// executor pops fair-queued jobs until Shutdown closes the queue.
func (s *Service) executor() {
	defer s.wg.Done()
	for {
		job, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.mu.Lock()
		ctx, ok := s.startLocked(job)
		s.mu.Unlock()
		if ok {
			s.runJob(ctx, job)
		}
	}
}

// startLocked takes a job off the queued count and moves it to running,
// returning the context its cancellation rides on. It reports false for
// a job cancelled while queued and for one shed by shutdown. Caller
// holds s.mu.
func (s *Service) startLocked(j *Job) (context.Context, bool) {
	s.queued--
	s.usageLocked(j.Tenant).queued--
	if j.state.Terminal() {
		// Cancelled while queued.
		return nil, false
	}
	if s.draining {
		// Queued jobs are shed on shutdown; only in-flight ones drain.
		s.finishLocked(j, StateCancelled, errShutdown.Error())
		return nil, false
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	s.running++
	s.usageLocked(j.Tenant).running++
	s.metrics.JobStarted(j.started.Sub(j.Created).Seconds())
	j.publish(Event{Type: "state", State: StateRunning})
	return ctx, true
}

// runJob executes a started job's prepared batch through the harness
// Runner and records its terminal state.
func (s *Service) runJob(ctx context.Context, j *Job) {
	tctx, tcancel := context.WithTimeout(ctx, j.Timeout)
	defer tcancel()
	defer j.cancel(nil)

	runner := &harness.Runner{
		Parallel: s.opts.CellParallel,
		Manifest: s.opts.Store,
		Observe: func(done, total int, rep harness.CellReport) {
			s.observeCell(j, done, total, rep)
		},
		Sinks: s.jobSinks(j),
	}
	if s.fleet != nil {
		// Every cell is offered to the worker fleet at once; the cells
		// it hands back run in-process, bounded by CellParallel.
		runner.Dispatcher = s.fleet
	}
	report, runErr := runner.Execute(tctx, j.batch)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	s.usageLocked(j.Tenant).running--
	j.report = report
	for _, res := range report.Results {
		j.results[res.Artifact.Name] = res
	}
	switch {
	case runErr == nil && report.Failed == 0:
		s.finishLocked(j, StateDone, "")
	case context.Cause(tctx) == errCancelled:
		s.finishLocked(j, StateCancelled, "cancelled by client")
	case context.Cause(tctx) == errShutdown:
		s.finishLocked(j, StateCancelled, errShutdown.Error())
	case tctx.Err() == context.DeadlineExceeded:
		s.finishLocked(j, StateFailed, fmt.Sprintf("timeout after %s", j.Timeout))
	case runErr != nil:
		s.finishLocked(j, StateFailed, runErr.Error())
	default:
		s.finishLocked(j, StateFailed, report.Err().Error())
	}
}

// observeCell forwards a Runner cell report to metrics and the job's
// event stream.
func (s *Service) observeCell(j *Job, done, total int, rep harness.CellReport) {
	sec := rep.Wall.Seconds()
	s.metrics.CellFinished(rep.Artifact, rep.Cached, rep.Err != nil, sec)
	s.metrics.TenantCell(j.Tenant, rep.Cached, rep.Err != nil)
	ev := Event{Type: "cell", Cell: &CellEvent{
		Artifact:   rep.Artifact,
		Cell:       rep.Cell,
		Index:      rep.Index,
		Cached:     rep.Cached,
		Worker:     rep.Worker,
		WallMillis: float64(rep.Wall) / float64(time.Millisecond),
		Rows:       rep.Rows,
		Done:       done,
		Total:      total,
	}}
	if rep.Err != nil {
		ev.Cell.Error = rep.Err.Error()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j.total = total
	j.cellsDone = done
	switch {
	case rep.Err != nil:
		j.failed++
	case rep.Cached:
		j.cached++
	default:
		j.executed++
	}
	j.publish(ev)
}

// jobSinks builds the optional per-job on-disk sinks.
func (s *Service) jobSinks(j *Job) []harness.Sink {
	if s.opts.ResultsDir == "" {
		return nil
	}
	dir := s.opts.ResultsDir + "/" + j.ID
	return []harness.Sink{
		harness.TSVSink{Dir: dir},
		harness.ReplaySink{Dir: dir + "/replay"},
	}
}

// Shutdown drains gracefully: no new submissions, queued-but-unstarted
// jobs are cancelled, in-flight jobs run to completion (until ctx
// expires, at which point they are cancelled). A store.Disk already
// holds every finished cell, so nothing is left to persist. Safe to
// call once.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.queue.Close()
	// Sweeps are long-lived by design, so graceful drain cancels them
	// outright: their in-flight jobs cancel, queued points never run.
	for _, id := range s.sweepOrder {
		sw := s.sweeps[id]
		if sw.state.Terminal() {
			continue
		}
		if sw.cancel != nil {
			sw.cancel(errShutdown)
		} else {
			// Submitted but its goroutine has not installed a cancel
			// func yet; mark it terminal so the goroutine exits at its
			// first state check.
			s.finishSweepLocked(sw, StateCancelled, errShutdown.Error())
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.sweepWG.Wait()
		s.wg.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		s.mu.Lock()
		for _, id := range s.order {
			if j := s.jobs[id]; j.state == StateRunning && j.cancel != nil {
				j.cancel(errShutdown)
			}
		}
		s.mu.Unlock()
		<-done
	}
	if s.fleet != nil {
		// After the executors drain there is nothing left to dispatch;
		// closing the fleet ends worker long-polls and rejects stragglers.
		s.fleet.Close()
	}
	return forced
}
