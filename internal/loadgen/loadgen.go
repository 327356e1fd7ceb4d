// Package loadgen is the capacity harness for the cohsimd daemon: it
// replays realistic job mixes from N concurrent tenants over the HTTP
// API and reports per-tenant throughput, latency percentiles, 429
// rates and cache-hit ratios. cmd/loadgen wraps it in a binary that
// sweeps concurrency levels into a jobs/sec-vs-concurrency curve; the
// loadgen-smoke CI target runs it short against an in-process daemon to
// pin fair-share and cache behavior.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"coherentleak/internal/client"
	"coherentleak/internal/service"
)

// Mix names a per-tenant workload shape.
type Mix string

const (
	// MixHot resubmits one identical job forever: after the first
	// execution every cell is a cache hit, the daemon's best case.
	MixHot Mix = "hot"
	// MixCold submits a fresh seed every time — every job executes all
	// of its cells, the sweep-like worst case for the cache.
	MixCold Mix = "cold"
	// MixLongtail cycles a small set of machine-config overrides, the
	// "mostly-warm with occasional new config" middle ground.
	MixLongtail Mix = "longtail"
)

// longtailConfigs is the config-override rotation MixLongtail cycles
// through (valid machine.Config latency overrides).
var longtailConfigs = []string{
	`{"Latencies":{"QPI":55}}`,
	`{"Latencies":{"QPI":60}}`,
	`{"Latencies":{"QPI":65}}`,
	`{"Latencies":{"QPI":70}}`,
}

// Tenant is one simulated principal driving load.
type Tenant struct {
	// Name labels the tenant in the report.
	Name string `json:"name"`
	// Key is the bearer key sent on every request; empty sends no
	// Authorization header (anonymous-mode daemons).
	Key string `json:"-"`
	// Mix selects the tenant's workload shape.
	Mix Mix `json:"mix"`
	// Seed is the hot mix's fixed seed (and the cold mix's base); give
	// tenants distinct seeds so their hot sets do not collide.
	Seed uint64 `json:"seed"`
}

// Options configures one loadgen run.
type Options struct {
	// BaseURL is the daemon root, e.g. http://localhost:8080.
	BaseURL string
	// Tenants drive load concurrently; at least one is required.
	Tenants []Tenant
	// Concurrency is the closed-loop worker count per tenant; <=0
	// means 1.
	Concurrency int
	// Duration bounds the run; <=0 means 5s.
	Duration time.Duration
	// Artifact is the submitted artifact; empty means "table1".
	Artifact string
	// Sizing is the submitted sizing; empty means "quick".
	Sizing string
	// MaxBackoff caps how long a worker honors a 429's Retry-After
	// before resubmitting; <=0 means 1s.
	MaxBackoff time.Duration
	// PollInterval spaces job-status polls; <=0 means 10ms.
	PollInterval time.Duration
	// Client issues the HTTP requests; nil uses a dedicated client.
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Concurrency <= 0 {
		o.Concurrency = 1
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Artifact == "" {
		o.Artifact = "table1"
	}
	if o.Sizing == "" {
		o.Sizing = "quick"
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 10 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	return o
}

// TenantReport aggregates one tenant's measurements.
type TenantReport struct {
	Tenant      string  `json:"tenant"`
	Mix         Mix     `json:"mix"`
	Submitted   int     `json:"submitted"`
	Completed   int     `json:"completed"`
	Failed      int     `json:"failed"`
	Rejected429 int     `json:"rejected429"`
	JobsPerSec  float64 `json:"jobsPerSec"`
	// Latency percentiles cover submit-to-terminal wall time of
	// completed jobs, in milliseconds.
	LatencyP50Millis float64 `json:"latencyP50Millis"`
	LatencyP90Millis float64 `json:"latencyP90Millis"`
	LatencyP99Millis float64 `json:"latencyP99Millis"`
	CellsExecuted    int     `json:"cellsExecuted"`
	CellsCached      int     `json:"cellsCached"`
	// CacheHitRatio is cached cells over completed (non-failed) cells
	// across the tenant's jobs.
	CacheHitRatio float64 `json:"cacheHitRatio"`
}

// Report is one loadgen run's result.
type Report struct {
	DurationSeconds float64        `json:"durationSeconds"`
	Concurrency     int            `json:"concurrency"`
	JobsPerSec      float64        `json:"jobsPerSec"`
	Tenants         []TenantReport `json:"tenants"`
}

// tenantStats collects one tenant's counters across its workers.
type tenantStats struct {
	mu          sync.Mutex
	submitted   int
	completed   int
	failed      int
	rejected429 int
	executed    int
	cached      int
	latencies   []float64 // ms, completed jobs only
	coldSeq     uint64    // next unique seed for MixCold
	tailSeq     int       // next config index for MixLongtail
}

// Run drives the configured mixes until Duration elapses (or ctx
// cancels) and aggregates the per-tenant report. Jobs in flight at the
// deadline are abandoned, not counted.
func Run(ctx context.Context, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if opts.BaseURL == "" {
		return nil, errors.New("loadgen: Options.BaseURL is required")
	}
	if len(opts.Tenants) == 0 {
		return nil, errors.New("loadgen: at least one tenant is required")
	}

	runCtx, cancel := context.WithTimeout(ctx, opts.Duration)
	defer cancel()
	start := time.Now()

	stats := make([]*tenantStats, len(opts.Tenants))
	var wg sync.WaitGroup
	for i, tn := range opts.Tenants {
		st := &tenantStats{coldSeq: tn.Seed}
		stats[i] = st
		for w := 0; w < opts.Concurrency; w++ {
			wg.Add(1)
			go func(tn Tenant) {
				defer wg.Done()
				worker(runCtx, opts, tn, st)
			}(tn)
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := &Report{DurationSeconds: elapsed, Concurrency: opts.Concurrency}
	for i, tn := range opts.Tenants {
		st := stats[i]
		tr := TenantReport{
			Tenant:        tn.Name,
			Mix:           tn.Mix,
			Submitted:     st.submitted,
			Completed:     st.completed,
			Failed:        st.failed,
			Rejected429:   st.rejected429,
			JobsPerSec:    float64(st.completed) / elapsed,
			CellsExecuted: st.executed,
			CellsCached:   st.cached,
		}
		sort.Float64s(st.latencies)
		tr.LatencyP50Millis = percentile(st.latencies, 50)
		tr.LatencyP90Millis = percentile(st.latencies, 90)
		tr.LatencyP99Millis = percentile(st.latencies, 99)
		if n := st.executed + st.cached; n > 0 {
			tr.CacheHitRatio = float64(st.cached) / float64(n)
		}
		rep.JobsPerSec += tr.JobsPerSec
		rep.Tenants = append(rep.Tenants, tr)
	}
	return rep, nil
}

// percentile is nearest-rank over an ascending-sorted sample (0 when
// empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// worker runs one closed loop: build a request for the tenant's mix,
// submit, follow the job to a terminal state, record, repeat.
func worker(ctx context.Context, opts Options, tn Tenant, st *tenantStats) {
	c := client.Client{Server: opts.BaseURL, Key: tn.Key, HTTP: opts.Client}
	for ctx.Err() == nil {
		submitAt := time.Now()
		var v service.View
		_, err := c.Call(ctx, http.MethodPost, "/v1/jobs", st.nextRequest(opts, tn), &v)
		if err == nil {
			st.mu.Lock()
			st.submitted++
			st.mu.Unlock()
			v, err = follow(ctx, c, opts.PollInterval, v.ID)
		}
		var se *client.StatusError
		switch {
		case ctx.Err() != nil:
			return // deadline hit mid-request or while the job ran; abandon it
		case errors.As(err, &se) && se.Code == http.StatusTooManyRequests:
			st.mu.Lock()
			st.rejected429++
			st.mu.Unlock()
			backoff := se.RetryAfter
			if backoff <= 0 || backoff > opts.MaxBackoff {
				backoff = opts.MaxBackoff
			}
			sleep(ctx, backoff)
			continue
		case err != nil:
			st.mu.Lock()
			st.failed++
			st.mu.Unlock()
			sleep(ctx, opts.MaxBackoff) // do not hot-loop on a broken request
			continue
		}
		st.mu.Lock()
		if v.State == service.StateDone {
			st.completed++
			st.latencies = append(st.latencies, float64(time.Since(submitAt))/float64(time.Millisecond))
			st.executed += v.Cells.Executed
			st.cached += v.Cells.Cached
		} else {
			st.failed++
		}
		st.mu.Unlock()
	}
}

// nextRequest renders the tenant's next submit body for its mix.
func (st *tenantStats) nextRequest(opts Options, tn Tenant) json.RawMessage {
	switch tn.Mix {
	case MixCold:
		st.mu.Lock()
		seed := st.coldSeq
		st.coldSeq++
		st.mu.Unlock()
		return json.RawMessage(fmt.Sprintf(`{"artifacts":[%q],"sizing":%q,"seed":%d}`, opts.Artifact, opts.Sizing, seed))
	case MixLongtail:
		st.mu.Lock()
		cfg := longtailConfigs[st.tailSeq%len(longtailConfigs)]
		st.tailSeq++
		st.mu.Unlock()
		return json.RawMessage(fmt.Sprintf(`{"artifacts":[%q],"sizing":%q,"seed":%d,"config":%s}`, opts.Artifact, opts.Sizing, tn.Seed, cfg))
	default: // MixHot
		return json.RawMessage(fmt.Sprintf(`{"artifacts":[%q],"sizing":%q,"seed":%d}`, opts.Artifact, opts.Sizing, tn.Seed))
	}
}

// follow polls one job until it reaches a terminal state. A retryable
// failure polls again; any other 4xx (the daemon no longer knows the
// job) ends the follow.
func follow(ctx context.Context, c client.Client, every time.Duration, id string) (service.View, error) {
	for {
		var v service.View
		_, err := c.Call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &v)
		switch {
		case err == nil && v.State.Terminal():
			return v, nil
		case err != nil && !client.Retryable(err):
			return v, err
		}
		if !sleep(ctx, every) {
			return v, ctx.Err()
		}
	}
}

// sleep waits d or until ctx cancels; it reports whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
