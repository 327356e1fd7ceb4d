package service

import (
	"context"
	"time"

	"coherentleak/internal/harness"
)

// State is a job's lifecycle stage.
type State string

const (
	// StateQueued means the job is admitted and waiting for an executor.
	StateQueued State = "queued"
	// StateRunning means an executor is driving the job's Runner.
	StateRunning State = "running"
	// StateDone means every cell succeeded and results are downloadable.
	StateDone State = "done"
	// StateFailed means the run finished with cell failures, a timeout,
	// or an engine error; partial results may still be downloadable.
	StateFailed State = "failed"
	// StateCancelled means the client (or a shutdown) cancelled the job.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one entry in a job's progress stream. Events are sequenced
// per job and replayed verbatim to late SSE subscribers, so a client
// that connects after completion still sees the full history.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state" or "cell"
	// State is set on "state" events.
	State State `json:"state,omitempty"`
	// Error carries the failure reason on terminal "state" events.
	Error string `json:"error,omitempty"`
	// Cell is set on "cell" events.
	Cell *CellEvent `json:"cell,omitempty"`
}

// CellEvent reports one finished cell, mirroring harness.CellReport.
type CellEvent struct {
	Artifact string `json:"artifact"`
	Cell     string `json:"cell"`
	Index    int    `json:"index"`
	Cached   bool   `json:"cached"`
	// Worker names the fleet worker that executed the cell; empty for
	// in-process execution and cache hits.
	Worker     string  `json:"worker,omitempty"`
	WallMillis float64 `json:"wallMillis"`
	Rows       int     `json:"rows"`
	Error      string  `json:"error,omitempty"`
	Done       int     `json:"done"`
	Total      int     `json:"total"`
}

// subEventBuffer bounds a subscriber's unread backlog. A full paper
// sweep emits well under a hundred events, so a subscriber only
// overflows if its connection has stalled completely — then it is
// dropped rather than allowed to stall the executor.
const subEventBuffer = 512

// Job is one admitted experiment run.
type Job struct {
	// Immutable after Submit.
	ID string
	// Tenant names the owning tenant; only that tenant's requests can
	// see or cancel the job ("anonymous" when auth is disabled).
	Tenant    string
	Artifacts []string
	Plan      harness.Plan
	Timeout   time.Duration
	Created   time.Time

	cancel context.CancelCauseFunc

	// Mutable state, guarded by the owning Service's mu (jobs are few
	// and events short; one lock keeps ordering between state changes
	// and event publication trivial).
	state    State
	started  time.Time
	finished time.Time
	errMsg   string
	total    int
	done     int
	executed int
	cached   int
	failed   int
	report   *harness.RunReport
	results  map[string]*harness.ArtifactResult
	stream   *eventLog[Event]
}

// CellsView summarizes per-cell progress counters.
type CellsView struct {
	Total    int `json:"total"`
	Done     int `json:"done"`
	Executed int `json:"executed"`
	Cached   int `json:"cached"`
	Failed   int `json:"failed"`
}

// ArtifactView names one downloadable result.
type ArtifactView struct {
	Name string `json:"name"`
	File string `json:"file"`
	Rows int    `json:"rows"`
	TSV  string `json:"tsv"`
	JSON string `json:"json"`
}

// View is the JSON representation of a job.
type View struct {
	ID           string         `json:"id"`
	State        State          `json:"state"`
	Tenant       string         `json:"tenant,omitempty"`
	Artifacts    []string       `json:"artifacts"`
	Seed         uint64         `json:"seed"`
	Sizing       string         `json:"sizing"`
	ConfigDigest string         `json:"configDigest"`
	Created      time.Time      `json:"created"`
	Started      *time.Time     `json:"started,omitempty"`
	Finished     *time.Time     `json:"finished,omitempty"`
	WallMillis   float64        `json:"wallMillis,omitempty"`
	Error        string         `json:"error,omitempty"`
	Cells        CellsView      `json:"cells"`
	Results      []ArtifactView `json:"results,omitempty"`
}

// view renders the job under the service lock.
func (j *Job) view() View {
	v := View{
		ID:           j.ID,
		State:        j.state,
		Tenant:       j.Tenant,
		Artifacts:    j.Artifacts,
		Seed:         j.Plan.Seed,
		Sizing:       string(j.Plan.Sizing),
		ConfigDigest: j.Plan.ConfigDigest(),
		Created:      j.Created,
		Error:        j.errMsg,
		Cells: CellsView{
			Total: j.total, Done: j.done,
			Executed: j.executed, Cached: j.cached, Failed: j.failed,
		},
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
		v.WallMillis = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	if j.report != nil {
		for _, res := range j.report.Results {
			v.Results = append(v.Results, ArtifactView{
				Name: res.Artifact.Name,
				File: res.Artifact.File,
				Rows: len(res.Rows),
				TSV:  "/v1/jobs/" + j.ID + "/artifacts/" + res.Artifact.Name + ".tsv",
				JSON: "/v1/jobs/" + j.ID + "/artifacts/" + res.Artifact.Name + ".json",
			})
		}
	}
	return v
}

// publish appends an event and fans it out through the job's stream
// (slow subscribers are evicted there). Caller holds the service lock.
func (j *Job) publish(ev Event) {
	ev.Seq = j.stream.seq()
	j.stream.publish(ev, ev.Type == "state" && ev.State.Terminal())
}
