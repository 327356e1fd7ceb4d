package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Metrics aggregates service counters and latency histograms and
// renders them in the Prometheus text exposition format. It is
// hand-rolled — the repo takes no dependencies — but the exposed series
// scrape cleanly with a stock Prometheus server. It also implements
// dispatch.Observer, so the worker fleet reports straight into it.
type Metrics struct {
	mu sync.Mutex

	jobsAccepted uint64
	jobsRejected uint64
	jobsByState  map[State]uint64

	sweepsAccepted uint64
	sweepsByState  map[State]uint64
	sweepPointsOK  uint64
	sweepPointsBad uint64
	sweepBackoffs  uint64
	sseEvictions   uint64

	cellsExecuted uint64
	cellsCached   uint64
	cellsFailed   uint64

	// Per-tenant series: admissions, 429s by reason, and cell outcomes.
	tenantAccepted map[string]uint64
	tenantRejected map[string]map[string]uint64 // tenant -> reason
	tenantCells    map[string]*tenantCellCounts

	jobSeconds       *histogram
	queueWaitSeconds *histogram            // submit -> running
	cellSeconds      map[string]*histogram // per artifact

	// Worker-fleet dispatch series.
	workersJoined    uint64
	workersLeft      uint64
	workerCells      map[string]*workerCellCounts // per worker
	leaseReclaims    uint64
	duplicateResults uint64
	localFallbacks   uint64
	dispatchSeconds  *histogram // enqueue -> accepted result
}

// workerCellCounts splits one worker's accepted results by outcome.
type workerCellCounts struct {
	ok     uint64
	failed uint64
}

// tenantCellCounts splits one tenant's cells by outcome.
type tenantCellCounts struct {
	executed uint64
	cached   uint64
	failed   uint64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		jobsByState:      make(map[State]uint64),
		sweepsByState:    make(map[State]uint64),
		jobSeconds:       newHistogram(jobBuckets),
		queueWaitSeconds: newHistogram(cellBuckets),
		cellSeconds:      make(map[string]*histogram),
		workerCells:      make(map[string]*workerCellCounts),
		dispatchSeconds:  newHistogram(cellBuckets),
		tenantAccepted:   make(map[string]uint64),
		tenantRejected:   make(map[string]map[string]uint64),
		tenantCells:      make(map[string]*tenantCellCounts),
	}
}

var (
	// cellBuckets span sub-millisecond cached hits to minute-long full
	// sweep cells.
	cellBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60}
	// jobBuckets span cached-job milliseconds to multi-minute cold runs.
	jobBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 15, 60, 300, 900}
)

type histogram struct {
	buckets []float64 // upper bounds, ascending; +Inf implied
	counts  []uint64  // len(buckets)+1
	sum     float64
	total   uint64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]uint64, len(buckets)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// JobAccepted counts an admitted job.
func (m *Metrics) JobAccepted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsAccepted++
}

// JobRejected counts a 429 admission rejection.
func (m *Metrics) JobRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsRejected++
}

// JobFinished records a terminal state and the job's wall time.
func (m *Metrics) JobFinished(state State, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsByState[state]++
	m.jobSeconds.observe(seconds)
}

// JobStarted records how long a job waited between submit and running.
func (m *Metrics) JobStarted(queueWaitSeconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueWaitSeconds.observe(queueWaitSeconds)
}

// TenantJobAccepted counts an admitted job against its tenant.
func (m *Metrics) TenantJobAccepted(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenantAccepted[tenant]++
}

// TenantJobRejected counts a 429 against its tenant. Reason is
// "queue-full" (global admission) or "quota" (the tenant's own limit).
func (m *Metrics) TenantJobRejected(tenant, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byReason, ok := m.tenantRejected[tenant]
	if !ok {
		byReason = make(map[string]uint64)
		m.tenantRejected[tenant] = byReason
	}
	byReason[reason]++
}

// TenantCell counts one finished cell against its tenant.
func (m *Metrics) TenantCell(tenant string, cached, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.tenantCells[tenant]
	if !ok {
		c = &tenantCellCounts{}
		m.tenantCells[tenant] = c
	}
	switch {
	case failed:
		c.failed++
	case cached:
		c.cached++
	default:
		c.executed++
	}
}

// SweepAccepted counts an admitted sweep.
func (m *Metrics) SweepAccepted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepsAccepted++
}

// SweepFinished records a sweep's terminal state.
func (m *Metrics) SweepFinished(state State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepsByState[state]++
}

// SweepPoint records one terminal sweep point.
func (m *Metrics) SweepPoint(failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if failed {
		m.sweepPointsBad++
	} else {
		m.sweepPointsOK++
	}
}

// SweepBackoff counts one admission-control backoff absorbed by a
// sweep point.
func (m *Metrics) SweepBackoff() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepBackoffs++
}

// SSEEvicted counts a slow event-stream subscriber dropped because its
// buffer overflowed.
func (m *Metrics) SSEEvicted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sseEvictions++
}

// CellFinished records one finished cell.
func (m *Metrics) CellFinished(artifact string, cached bool, failed bool, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case failed:
		m.cellsFailed++
	case cached:
		m.cellsCached++
	default:
		m.cellsExecuted++
	}
	h, ok := m.cellSeconds[artifact]
	if !ok {
		h = newHistogram(cellBuckets)
		m.cellSeconds[artifact] = h
	}
	h.observe(seconds)
}

// WorkerJoined implements dispatch.Observer.
func (m *Metrics) WorkerJoined(worker string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workersJoined++
}

// WorkerLeft implements dispatch.Observer.
func (m *Metrics) WorkerLeft(worker, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workersLeft++
}

// WorkerResult implements dispatch.Observer: per-worker cell counters
// plus the dispatch latency histogram (enqueue to accepted result).
func (m *Metrics) WorkerResult(worker string, failed bool, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.workerCells[worker]
	if !ok {
		c = &workerCellCounts{}
		m.workerCells[worker] = c
	}
	if failed {
		c.failed++
	} else {
		c.ok++
	}
	m.dispatchSeconds.observe(seconds)
}

// LeaseReclaimed implements dispatch.Observer.
func (m *Metrics) LeaseReclaimed(worker string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.leaseReclaims++
}

// DuplicateResult implements dispatch.Observer.
func (m *Metrics) DuplicateResult(worker string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.duplicateResults++
}

// LocalFallback implements dispatch.Observer.
func (m *Metrics) LocalFallback() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.localFallbacks++
}

// AvgJobSeconds estimates mean job wall time (0 when nothing finished),
// used to size Retry-After hints.
func (m *Metrics) AvgJobSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jobSeconds.total == 0 {
		return 0
	}
	return m.jobSeconds.sum / float64(m.jobSeconds.total)
}

// Gauges are point-in-time values the service samples at scrape time.
type Gauges struct {
	JobsQueued    int
	JobsRunning   int
	QueueCapacity int
	CacheEntries  int
	SweepsQueued  int
	SweepsRunning int
	// Worker-fleet samples (zero when dispatch is disabled).
	WorkersLive        int
	LeasesInFlight     int
	DispatchQueueDepth int
	// TenantQueueDepth samples each tenant's fair-queue lane.
	TenantQueueDepth map[string]int
}

// WriteTo renders every series. Gauges come from the caller so the
// registry itself never reaches back into service internals.
func (m *Metrics) WriteTo(w io.Writer, g Gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP cohsimd_jobs_accepted_total Jobs admitted to the queue.\n# TYPE cohsimd_jobs_accepted_total counter\ncohsimd_jobs_accepted_total %d\n", m.jobsAccepted)
	fmt.Fprintf(w, "# HELP cohsimd_jobs_rejected_total Jobs rejected with 429 (queue full).\n# TYPE cohsimd_jobs_rejected_total counter\ncohsimd_jobs_rejected_total %d\n", m.jobsRejected)

	fmt.Fprintf(w, "# HELP cohsimd_jobs_finished_total Jobs by terminal state.\n# TYPE cohsimd_jobs_finished_total counter\n")
	for _, st := range []State{StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "cohsimd_jobs_finished_total{state=%q} %d\n", st, m.jobsByState[st])
	}

	fmt.Fprintf(w, "# HELP cohsimd_sweeps_accepted_total Sweeps admitted.\n# TYPE cohsimd_sweeps_accepted_total counter\ncohsimd_sweeps_accepted_total %d\n", m.sweepsAccepted)
	fmt.Fprintf(w, "# HELP cohsimd_sweeps_finished_total Sweeps by terminal state.\n# TYPE cohsimd_sweeps_finished_total counter\n")
	for _, st := range []State{StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "cohsimd_sweeps_finished_total{state=%q} %d\n", st, m.sweepsByState[st])
	}
	fmt.Fprintf(w, "# HELP cohsimd_sweep_points_total Sweep points by outcome.\n# TYPE cohsimd_sweep_points_total counter\n")
	fmt.Fprintf(w, "cohsimd_sweep_points_total{outcome=\"ok\"} %d\n", m.sweepPointsOK)
	fmt.Fprintf(w, "cohsimd_sweep_points_total{outcome=\"failed\"} %d\n", m.sweepPointsBad)
	fmt.Fprintf(w, "# HELP cohsimd_sweep_backoffs_total Admission-control backoffs absorbed by sweep points.\n# TYPE cohsimd_sweep_backoffs_total counter\ncohsimd_sweep_backoffs_total %d\n", m.sweepBackoffs)
	fmt.Fprintf(w, "# HELP cohsimd_sse_evictions_total Slow event-stream subscribers dropped on buffer overflow.\n# TYPE cohsimd_sse_evictions_total counter\ncohsimd_sse_evictions_total %d\n", m.sseEvictions)

	fmt.Fprintf(w, "# HELP cohsimd_cells_total Cells by outcome.\n# TYPE cohsimd_cells_total counter\n")
	fmt.Fprintf(w, "cohsimd_cells_total{outcome=\"executed\"} %d\n", m.cellsExecuted)
	fmt.Fprintf(w, "cohsimd_cells_total{outcome=\"cached\"} %d\n", m.cellsCached)
	fmt.Fprintf(w, "cohsimd_cells_total{outcome=\"failed\"} %d\n", m.cellsFailed)

	// Cache effectiveness: hits over completed (non-failed) cells, so
	// dashboards can tell "the fleet is cold" from "the cache is off".
	ratio := 0.0
	if n := m.cellsCached + m.cellsExecuted; n > 0 {
		ratio = float64(m.cellsCached) / float64(n)
	}
	fmt.Fprintf(w, "# HELP cohsimd_cell_cache_hit_ratio Cell-store hits over completed cells.\n# TYPE cohsimd_cell_cache_hit_ratio gauge\ncohsimd_cell_cache_hit_ratio %g\n", ratio)

	tenantNames := make(map[string]bool)
	for n := range m.tenantAccepted {
		tenantNames[n] = true
	}
	for n := range m.tenantRejected {
		tenantNames[n] = true
	}
	for n := range m.tenantCells {
		tenantNames[n] = true
	}
	for n := range g.TenantQueueDepth {
		tenantNames[n] = true
	}
	tenants := make([]string, 0, len(tenantNames))
	for n := range tenantNames {
		tenants = append(tenants, n)
	}
	sort.Strings(tenants)

	fmt.Fprintf(w, "# HELP cohsimd_tenant_jobs_accepted_total Jobs admitted per tenant.\n# TYPE cohsimd_tenant_jobs_accepted_total counter\n")
	for _, n := range tenants {
		fmt.Fprintf(w, "cohsimd_tenant_jobs_accepted_total{tenant=%q} %d\n", n, m.tenantAccepted[n])
	}
	fmt.Fprintf(w, "# HELP cohsimd_tenant_jobs_rejected_total 429s per tenant by reason (queue-full or quota).\n# TYPE cohsimd_tenant_jobs_rejected_total counter\n")
	for _, n := range tenants {
		for _, reason := range []string{"queue-full", "quota"} {
			fmt.Fprintf(w, "cohsimd_tenant_jobs_rejected_total{tenant=%q,reason=%q} %d\n", n, reason, m.tenantRejected[n][reason])
		}
	}
	fmt.Fprintf(w, "# HELP cohsimd_tenant_cells_total Cells run per tenant by outcome.\n# TYPE cohsimd_tenant_cells_total counter\n")
	for _, n := range tenants {
		c := m.tenantCells[n]
		if c == nil {
			c = &tenantCellCounts{}
		}
		fmt.Fprintf(w, "cohsimd_tenant_cells_total{tenant=%q,outcome=\"executed\"} %d\n", n, c.executed)
		fmt.Fprintf(w, "cohsimd_tenant_cells_total{tenant=%q,outcome=\"cached\"} %d\n", n, c.cached)
		fmt.Fprintf(w, "cohsimd_tenant_cells_total{tenant=%q,outcome=\"failed\"} %d\n", n, c.failed)
	}
	fmt.Fprintf(w, "# HELP cohsimd_tenant_queue_depth Jobs waiting on each tenant's fair-queue lane.\n# TYPE cohsimd_tenant_queue_depth gauge\n")
	for _, n := range tenants {
		fmt.Fprintf(w, "cohsimd_tenant_queue_depth{tenant=%q} %d\n", n, g.TenantQueueDepth[n])
	}

	fmt.Fprintf(w, "# HELP cohsimd_workers_joined_total Workers registered with the fleet.\n# TYPE cohsimd_workers_joined_total counter\ncohsimd_workers_joined_total %d\n", m.workersJoined)
	fmt.Fprintf(w, "# HELP cohsimd_workers_left_total Workers deregistered or expired.\n# TYPE cohsimd_workers_left_total counter\ncohsimd_workers_left_total %d\n", m.workersLeft)

	fmt.Fprintf(w, "# HELP cohsimd_worker_cells_total Cells executed per worker by outcome.\n# TYPE cohsimd_worker_cells_total counter\n")
	workerNames := make([]string, 0, len(m.workerCells))
	for n := range m.workerCells {
		workerNames = append(workerNames, n)
	}
	sort.Strings(workerNames)
	for _, n := range workerNames {
		c := m.workerCells[n]
		fmt.Fprintf(w, "cohsimd_worker_cells_total{worker=%q,outcome=\"ok\"} %d\n", n, c.ok)
		fmt.Fprintf(w, "cohsimd_worker_cells_total{worker=%q,outcome=\"failed\"} %d\n", n, c.failed)
	}

	fmt.Fprintf(w, "# HELP cohsimd_lease_reclaims_total Cell leases reclaimed from dead or overdue workers.\n# TYPE cohsimd_lease_reclaims_total counter\ncohsimd_lease_reclaims_total %d\n", m.leaseReclaims)
	fmt.Fprintf(w, "# HELP cohsimd_duplicate_results_total Worker results dropped because their lease was reclaimed.\n# TYPE cohsimd_duplicate_results_total counter\ncohsimd_duplicate_results_total %d\n", m.duplicateResults)
	fmt.Fprintf(w, "# HELP cohsimd_dispatch_local_fallback_total Cells executed in-process by the dispatch fallback.\n# TYPE cohsimd_dispatch_local_fallback_total counter\ncohsimd_dispatch_local_fallback_total %d\n", m.localFallbacks)

	fmt.Fprintf(w, "# HELP cohsimd_jobs_queued Jobs waiting for an executor.\n# TYPE cohsimd_jobs_queued gauge\ncohsimd_jobs_queued %d\n", g.JobsQueued)
	fmt.Fprintf(w, "# HELP cohsimd_jobs_running Jobs currently executing.\n# TYPE cohsimd_jobs_running gauge\ncohsimd_jobs_running %d\n", g.JobsRunning)
	fmt.Fprintf(w, "# HELP cohsimd_queue_capacity Bounded queue capacity.\n# TYPE cohsimd_queue_capacity gauge\ncohsimd_queue_capacity %d\n", g.QueueCapacity)
	fmt.Fprintf(w, "# HELP cohsimd_manifest_entries Cells in the shared cell store.\n# TYPE cohsimd_manifest_entries gauge\ncohsimd_manifest_entries %d\n", g.CacheEntries)
	fmt.Fprintf(w, "# HELP cohsimd_sweeps_queued Sweeps waiting for a run slot.\n# TYPE cohsimd_sweeps_queued gauge\ncohsimd_sweeps_queued %d\n", g.SweepsQueued)
	fmt.Fprintf(w, "# HELP cohsimd_sweeps_running Sweeps currently executing.\n# TYPE cohsimd_sweeps_running gauge\ncohsimd_sweeps_running %d\n", g.SweepsRunning)
	fmt.Fprintf(w, "# HELP cohsimd_workers_live Workers currently attached to the fleet.\n# TYPE cohsimd_workers_live gauge\ncohsimd_workers_live %d\n", g.WorkersLive)
	fmt.Fprintf(w, "# HELP cohsimd_dispatch_leases_in_flight Cells currently leased to workers.\n# TYPE cohsimd_dispatch_leases_in_flight gauge\ncohsimd_dispatch_leases_in_flight %d\n", g.LeasesInFlight)
	fmt.Fprintf(w, "# HELP cohsimd_dispatch_queue_depth Cells awaiting a worker lease.\n# TYPE cohsimd_dispatch_queue_depth gauge\ncohsimd_dispatch_queue_depth %d\n", g.DispatchQueueDepth)

	writeHistogram(w, "cohsimd_job_seconds", "Job wall time by terminal state.", "", m.jobSeconds)
	writeHistogram(w, "cohsimd_job_queue_wait_seconds", "Time from submit until a job starts running; a job the cell store holds entirely starts at submit.", "", m.queueWaitSeconds)
	writeHistogram(w, "cohsimd_dispatch_seconds", "Dispatch latency: cell enqueue to accepted worker result.", "", m.dispatchSeconds)
	names := make([]string, 0, len(m.cellSeconds))
	for n := range m.cellSeconds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		writeHistogram(w, "cohsimd_cell_seconds", "Cell wall time per artifact.",
			fmt.Sprintf("{artifact=%q}", n), m.cellSeconds[n])
	}
}

func writeHistogram(w io.Writer, name, help, labels string, h *histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	labelJoin := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return labels[:len(labels)-1] + fmt.Sprintf(",le=%q}", le)
	}
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelJoin(fmt.Sprintf("%g", ub)), cum)
	}
	cum += h.counts[len(h.buckets)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelJoin("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.total)
}
