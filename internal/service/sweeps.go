package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"coherentleak/internal/sweep"
	"coherentleak/internal/tenant"
)

// sweepEventBuffer bounds a sweep subscriber's unread backlog. Sweeps
// emit an event per point plus frontier updates — hundreds for a large
// grid — so the buffer is deliberately smaller than a job's: a stalled
// subscriber is evicted and recovers by reconnecting with
// Last-Event-ID.
const sweepEventBuffer = 256

// SweepEvent is one entry in a sweep's progress stream, sequenced and
// replayed exactly like job events.
type SweepEvent struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state", "point", "backoff" or "frontier"
	// State is set on "state" events.
	State State `json:"state,omitempty"`
	// Error carries the failure reason on terminal "state" events.
	Error string `json:"error,omitempty"`
	// Done/Total track point completion on progress events.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Point is set on "point" (terminal outcome) and "backoff" events.
	Point *SweepPointView `json:"point,omitempty"`
	// Frontier is the ranked snapshot on "frontier" events.
	Frontier []FrontierRow `json:"frontier,omitempty"`
}

// ParamView is one axis assignment rendered for JSON clients.
type ParamView struct {
	Param string `json:"param"`
	Value string `json:"value"`
}

// SweepPointView describes one point outcome over the wire.
type SweepPointView struct {
	Index   int         `json:"index"`
	Seed    uint64      `json:"seed"`
	Params  []ParamView `json:"params"`
	JobID   string      `json:"jobId,omitempty"`
	Score   float64     `json:"score"`
	Scored  bool        `json:"scored"`
	Error   string      `json:"error,omitempty"`
	Retries int         `json:"retries,omitempty"`
	// RetryAfterSeconds is the wait a backoff event announces.
	RetryAfterSeconds float64          `json:"retryAfterSeconds,omitempty"`
	Cells             sweep.CellCounts `json:"cells"`
}

// FrontierRow is one ranked frontier entry over the wire.
type FrontierRow struct {
	Rank   int         `json:"rank"`
	Point  int         `json:"point"`
	Score  float64     `json:"score"`
	Seed   uint64      `json:"seed"`
	Params []ParamView `json:"params"`
	JobID  string      `json:"jobId,omitempty"`
}

// Sweep is one admitted parameter sweep. Mutable state is guarded by
// the owning Service's mu, mirroring Job.
type Sweep struct {
	ID string
	// Tenant names the owning tenant; its points are submitted on that
	// tenant's fair-queue lane and count against its quotas.
	Tenant  string
	Spec    sweep.Spec
	Created time.Time

	// owner carries the tenant's weight and quotas into point
	// submissions.
	owner *tenant.Tenant

	cancel context.CancelCauseFunc

	state     State
	started   time.Time
	finished  time.Time
	errMsg    string
	total     int
	done      int
	completed int
	failed    int
	retries   int
	cells     sweep.CellCounts
	frontier  []sweep.Entry
	stream    *eventLog[SweepEvent]
}

// SweepPointsView summarizes point progress counters.
type SweepPointsView struct {
	Total     int `json:"total"`
	Done      int `json:"done"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Retries   int `json:"retries"`
}

// SweepView is the JSON representation of a sweep.
type SweepView struct {
	ID         string           `json:"id"`
	State      State            `json:"state"`
	Tenant     string           `json:"tenant,omitempty"`
	Name       string           `json:"name,omitempty"`
	Artifacts  []string         `json:"artifacts,omitempty"`
	Strategy   string           `json:"strategy"`
	Objective  string           `json:"objective"`
	Created    time.Time        `json:"created"`
	Started    *time.Time       `json:"started,omitempty"`
	Finished   *time.Time       `json:"finished,omitempty"`
	WallMillis float64          `json:"wallMillis,omitempty"`
	Error      string           `json:"error,omitempty"`
	Points     SweepPointsView  `json:"points"`
	Cells      sweep.CellCounts `json:"cells"`
	Frontier   []FrontierRow    `json:"frontier,omitempty"`
	// FrontierTSV and Events link the deterministic table and the SSE
	// stream.
	FrontierTSV string `json:"frontierTsv"`
	Events      string `json:"events"`
}

func paramViews(ps []sweep.ParamValue) []ParamView {
	out := make([]ParamView, len(ps))
	for i, p := range ps {
		out[i] = ParamView{Param: p.Param, Value: p.Display()}
	}
	return out
}

func frontierRows(entries []sweep.Entry) []FrontierRow {
	out := make([]FrontierRow, len(entries))
	for i, e := range entries {
		out[i] = FrontierRow{
			Rank:   i + 1,
			Point:  e.Point.Index,
			Score:  e.Score,
			Seed:   e.Point.Seed,
			Params: paramViews(e.Point.Params),
			JobID:  e.JobID,
		}
	}
	return out
}

func pointView(pr *sweep.PointReport) *SweepPointView {
	v := &SweepPointView{
		Index:             pr.Point.Index,
		Seed:              pr.Point.Seed,
		Params:            paramViews(pr.Point.Params),
		JobID:             pr.JobID,
		Score:             pr.Score,
		Scored:            pr.Scored,
		Retries:           pr.Retries,
		RetryAfterSeconds: pr.RetryAfter.Seconds(),
		Cells:             pr.Cells,
	}
	if pr.Err != nil {
		v.Error = pr.Err.Error()
	}
	return v
}

// view renders the sweep under the service lock.
func (sw *Sweep) view() SweepView {
	obj, err := sweep.BuildObjective(sw.Spec.Objective)
	desc := ""
	if err == nil {
		desc = obj.Describe()
	}
	strategy := sw.Spec.Strategy
	if strategy == "" {
		strategy = sweep.StrategyGrid
	}
	v := SweepView{
		ID:          sw.ID,
		State:       sw.state,
		Tenant:      sw.Tenant,
		Name:        sw.Spec.Name,
		Artifacts:   sw.Spec.Artifacts,
		Strategy:    strategy,
		Objective:   desc,
		Created:     sw.Created,
		Error:       sw.errMsg,
		Points:      SweepPointsView{Total: sw.total, Done: sw.done, Completed: sw.completed, Failed: sw.failed, Retries: sw.retries},
		Cells:       sw.cells,
		Frontier:    frontierRows(sw.frontier),
		FrontierTSV: "/v1/sweeps/" + sw.ID + "/frontier.tsv",
		Events:      "/v1/sweeps/" + sw.ID + "/events",
	}
	if !sw.started.IsZero() {
		t := sw.started
		v.Started = &t
	}
	if !sw.finished.IsZero() {
		t := sw.finished
		v.Finished = &t
		v.WallMillis = float64(sw.finished.Sub(sw.started)) / float64(time.Millisecond)
	}
	return v
}

// publish appends a sweep event. Caller holds the service lock.
func (sw *Sweep) publish(ev SweepEvent) {
	ev.Seq = sw.stream.seq()
	sw.stream.publish(ev, ev.Type == "state" && ev.State.Terminal())
}

// SubmitSweep validates and launches a sweep owned by tn. The whole
// grid is expanded and every point's config is dry-run through plan
// building up front, so a typo'd axis path or over-budget grid fails
// the submit (HTTP 400) instead of failing hundreds of points later.
// The tenant's SweepBudget caps the point count (the anonymous tenant
// has none, so its cap is sweep.DefaultMaxPoints whatever the spec's
// maxPoints), checked before any point is built (a client error:
// resubmitting the same grid can never succeed), and MaxQueuedPoints
// caps pending points across its active sweeps (ErrQuota, an admission
// failure worth retrying).
func (s *Service) SubmitSweep(tn *tenant.Tenant, spec sweep.Spec) (*Sweep, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if a := spec.Objective.Artifact; a != "" && len(spec.Artifacts) > 0 {
		found := false
		for _, name := range spec.Artifacts {
			found = found || name == a
		}
		if !found {
			return nil, fmt.Errorf("sweep: objective reads artifact %q but the sweep only runs %v", a, spec.Artifacts)
		}
	}
	size, err := spec.Size()
	if err != nil {
		return nil, err
	}
	budget := tn.SweepBudget
	if tn == s.opts.Tenants.Anonymous() {
		// No operator sets the anonymous tenant's budget, so a spec's
		// own maxPoints must not lift the default cap.
		budget = sweep.DefaultMaxPoints
	}
	if budget > 0 && size > budget {
		return nil, fmt.Errorf("sweep: %d point(s) exceed tenant %s's sweep budget of %d",
			size, tn.Name, budget)
	}
	points, err := sweep.Expand(spec, s.opts.DefaultSeed)
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		req := s.sweepPointRequest(spec, pt)
		if _, _, _, err := s.buildPlan(req); err != nil {
			return nil, fmt.Errorf("point %d (%s): %w", pt.Index, describeParams(pt), err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	u := s.usageLocked(tn.Name)
	if tn.MaxQueuedPoints > 0 && u.pointsPending+len(points) > tn.MaxQueuedPoints {
		return nil, fmt.Errorf("%w: tenant %s has %d pending sweep point(s); %d more would exceed maxQueuedPoints %d",
			ErrQuota, tn.Name, u.pointsPending, len(points), tn.MaxQueuedPoints)
	}
	s.sweepSeq++
	sw := &Sweep{
		ID:      fmt.Sprintf("sweep-%06d", s.sweepSeq),
		Tenant:  tn.Name,
		Spec:    spec,
		Created: time.Now(),
		owner:   tn,
		state:   StateQueued,
		total:   len(points),
		stream:  newEventLog[SweepEvent](sweepEventBuffer, s.metrics.SSEEvicted),
	}
	u.pointsPending += len(points)
	u.sweepsActive++
	s.sweeps[sw.ID] = sw
	s.sweepOrder = append(s.sweepOrder, sw.ID)
	s.metrics.SweepAccepted()
	sw.publish(SweepEvent{Type: "state", State: StateQueued, Total: sw.total})
	s.logf("%s queued (tenant %s): %d point(s) over %v, objective %s", sw.ID, tn.Name, len(points), spec.AxisNames(), spec.Objective.Column)
	s.sweepWG.Add(1)
	go s.runSweep(sw)
	return sw, nil
}

func describeParams(pt sweep.Point) string {
	out := ""
	for i, p := range pt.Params {
		if i > 0 {
			out += " "
		}
		out += p.Param + "=" + p.Display()
	}
	return out
}

// sweepPointRequest maps one expanded point onto a job submission.
func (s *Service) sweepPointRequest(spec sweep.Spec, pt sweep.Point) *SubmitRequest {
	seed := pt.Seed
	return &SubmitRequest{
		Artifacts: spec.Artifacts,
		Seed:      &seed,
		Sizing:    spec.Sizing,
		Config:    pt.Config,
	}
}

// sweepOf returns sweep id if tn owns it; other tenants' sweeps report
// not-found so IDs cannot be probed across tenants. Caller holds s.mu.
func (s *Service) sweepOf(tn *tenant.Tenant, id string) (*Sweep, bool) {
	sw, ok := s.sweeps[id]
	if !ok || sw.Tenant != tn.Name {
		return nil, false
	}
	return sw, true
}

// SweepViews lists tn's sweeps in submission order.
func (s *Service) SweepViews(tn *tenant.Tenant) []SweepView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SweepView, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		if sw := s.sweeps[id]; sw.Tenant == tn.Name {
			out = append(out, sw.view())
		}
	}
	return out
}

// SweepView renders one of tn's sweeps.
func (s *Service) SweepView(tn *tenant.Tenant, id string) (SweepView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweepOf(tn, id)
	if !ok {
		return SweepView{}, false
	}
	return sw.view(), true
}

// SweepFrontierTSV renders the current ranked frontier of a sweep tn
// owns — the deterministic table a fixed spec + seed reproduces
// byte-for-byte.
func (s *Service) SweepFrontierTSV(tn *tenant.Tenant, id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweepOf(tn, id)
	if !ok {
		return nil, false
	}
	f := sweep.NewFrontier(sw.Spec.Objective.Maximize(), sw.Spec.TopK)
	for _, e := range sw.frontier {
		f.Add(e)
	}
	return f.TSV(sw.Spec.AxisNames()), true
}

// CancelSweep cancels a queued or running sweep tn owns. It reports
// whether the sweep exists; cancelling a terminal sweep is a no-op.
func (s *Service) CancelSweep(tn *tenant.Tenant, id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweepOf(tn, id)
	if !ok {
		return false
	}
	switch sw.state {
	case StateQueued:
		s.finishSweepLocked(sw, StateCancelled, "cancelled by client")
		if sw.cancel != nil {
			sw.cancel(errCancelled)
		}
	case StateRunning:
		sw.cancel(errCancelled)
	}
	return true
}

// SubscribeSweep returns the event history and live channel (nil
// channel when the sweep is terminal) of a sweep tn owns, plus an
// unsubscribe func.
func (s *Service) SubscribeSweep(tn *tenant.Tenant, id string) (history []SweepEvent, ch chan SweepEvent, cancel func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweepOf(tn, id)
	if !ok {
		return nil, nil, nil, false
	}
	history, ch, cancel = sw.stream.subscribe(&s.mu, sw.state.Terminal())
	return history, ch, cancel, true
}

// finishSweepLocked moves a sweep to a terminal state. Caller holds s.mu.
func (s *Service) finishSweepLocked(sw *Sweep, state State, errMsg string) {
	if sw.state.Terminal() {
		return
	}
	// Release the points that will now never run from the tenant's
	// pending-point budget (finished points were released one by one as
	// their events arrived).
	if remaining := sw.total - sw.done; remaining > 0 {
		s.usageLocked(sw.Tenant).pointsPending -= remaining
	}
	s.usageLocked(sw.Tenant).sweepsActive--
	if sw.started.IsZero() {
		sw.started = sw.Created
	}
	sw.state = state
	sw.errMsg = errMsg
	sw.finished = time.Now()
	sw.publish(SweepEvent{Type: "state", State: state, Error: errMsg, Done: sw.done, Total: sw.total})
	s.metrics.SweepFinished(state)
	s.logf("%s %s%s", sw.ID, state, suffixIf(errMsg))
}

// runSweep drives one sweep through the engine: wait for a slot on the
// sweep gate, run every point as a service job, finish with a terminal
// state derived from the cancellation cause.
func (s *Service) runSweep(sw *Sweep) {
	defer s.sweepWG.Done()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	s.mu.Lock()
	if sw.state.Terminal() {
		s.mu.Unlock()
		return
	}
	sw.cancel = cancel
	s.mu.Unlock()

	// The gate bounds concurrent sweeps; queued ones wait here,
	// cancellable the whole time.
	select {
	case s.sweepGate <- struct{}{}:
	case <-ctx.Done():
		s.mu.Lock()
		s.finishSweepLocked(sw, StateCancelled, cancelMessage(ctx))
		s.mu.Unlock()
		return
	}
	defer func() { <-s.sweepGate }()

	s.mu.Lock()
	if sw.state.Terminal() {
		s.mu.Unlock()
		return
	}
	sw.state = StateRunning
	sw.started = time.Now()
	s.sweepsRunning++
	sw.publish(SweepEvent{Type: "state", State: StateRunning, Total: sw.total})
	s.mu.Unlock()

	rep, runErr := sweep.Run(ctx, sw.Spec, sweep.Options{
		RunPoint: func(ctx context.Context, pt sweep.Point) (sweep.PointResult, error) {
			return s.runSweepPoint(ctx, sw, pt)
		},
		DefaultSeed: s.opts.DefaultSeed,
		InFlight:    s.opts.SweepInFlight,
		Observe:     func(ev sweep.Event) { s.observeSweep(sw, ev) },
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepsRunning--
	if rep != nil {
		sw.frontier = rep.Frontier.Entries()
	}
	switch {
	case runErr == nil && rep.Failed == 0:
		s.finishSweepLocked(sw, StateDone, "")
	case runErr == nil:
		s.finishSweepLocked(sw, StateFailed, fmt.Sprintf("%d of %d point(s) failed", rep.Failed, sw.total))
	case context.Cause(ctx) != nil && context.Cause(ctx) != context.Canceled:
		s.finishSweepLocked(sw, StateCancelled, cancelMessage(ctx))
	default:
		s.finishSweepLocked(sw, StateFailed, runErr.Error())
	}
}

func cancelMessage(ctx context.Context) string {
	switch context.Cause(ctx) {
	case errShutdown:
		return errShutdown.Error()
	default:
		return "cancelled by client"
	}
}

// observeSweep translates one engine event into sweep state, metrics
// and the SSE stream. Called from engine workers under the engine's
// lock; takes s.mu (never the other way round, so no inversion).
func (s *Service) observeSweep(sw *Sweep, ev sweep.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SweepEvent{Type: ev.Type, Done: ev.Done, Total: ev.Total}
	switch ev.Type {
	case sweep.EventPoint:
		sw.done = ev.Done
		if !sw.state.Terminal() {
			s.usageLocked(sw.Tenant).pointsPending--
		}
		if ev.Point.Scored {
			sw.completed++
		} else {
			sw.failed++
		}
		sw.cells.Add(ev.Point.Cells)
		s.metrics.SweepPoint(!ev.Point.Scored)
		out.Point = pointView(ev.Point)
	case sweep.EventBackoff:
		sw.retries++
		s.metrics.SweepBackoff()
		out.Point = pointView(ev.Point)
	case sweep.EventFrontier:
		sw.frontier = ev.Frontier
		out.Frontier = frontierRows(ev.Frontier)
	default:
		return
	}
	sw.publish(out)
}

// runSweepPoint executes one point as a regular service job submitted
// on the owning tenant's fair-queue lane, so a sweep's firehose of
// points competes as that tenant, not ahead of other tenants.
// Queue-full and tenant-quota rejections become RetryErrors so the
// engine backs off instead of failing the point; the shared cell
// store dedupes repeated cells across points automatically. The point
// waits for its job to finish, and cancels it if ctx ends first.
func (s *Service) runSweepPoint(ctx context.Context, sw *Sweep, pt sweep.Point) (sweep.PointResult, error) {
	var res sweep.PointResult
	job, err := s.Submit(sw.owner, s.sweepPointRequest(sw.Spec, pt))
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrQuota) {
		return res, &sweep.RetryError{After: s.RetryAfterTenant(sw.Tenant), Err: err}
	}
	if err != nil {
		return res, err
	}
	select {
	case <-job.done:
	case <-ctx.Done():
		s.Cancel(sw.owner, job.ID)
		return res, ctx.Err()
	}
	// A terminal job's fields no longer change.
	s.mu.Lock()
	state, errMsg := job.state, job.errMsg
	res.Cells = sweep.CellCounts{
		Total:    job.total,
		Executed: job.executed,
		Cached:   job.cached,
		Failed:   job.failed,
	}
	s.mu.Unlock()
	if state != StateDone {
		return res, fmt.Errorf("%s %s%s", job.ID, state, suffixIf(errMsg))
	}
	res.JobID = job.ID
	res.TSV = make(map[string][]byte, len(job.Artifacts))
	for _, name := range job.Artifacts {
		r, ok := job.result(name)
		if !ok {
			return res, fmt.Errorf("%s finished without an assembled %s table", job.ID, name)
		}
		res.TSV[name] = r.TSV()
	}
	return res, nil
}
