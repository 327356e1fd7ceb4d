package loadgen_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"coherentleak/internal/dispatch"
	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/loadgen"
	"coherentleak/internal/service"
	"coherentleak/internal/tenant"
)

// TestLoadgenSmoke is the CI capacity check (make loadgen-smoke): two
// equal-weight authenticated tenants replay the hot mix against a
// daemon with two dispatch workers attached. The run must show fair
// sharing (neither tenant starved) and a >90% cache-hit ratio — the
// hot mix resubmits one identical job, so after the first execution
// every cell is a store hit.
func TestLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loadgen smoke needs a multi-second measured run")
	}
	reg, err := tenant.New([]*tenant.Tenant{
		{Name: "alice", Key: "alice-key-123456", Weight: 1},
		{Name: "bob", Key: "bob-key-1234567", Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Options{
		Registry:    experiments.Artifacts(),
		Executors:   2,
		QueueDepth:  64,
		DefaultSeed: experiments.DefaultSeed,
		Tenants:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		ts.Close()
	})
	attachWorker(t, ts, "w1", experiments.Artifacts())
	attachWorker(t, ts, "w2", experiments.Artifacts())

	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL: ts.URL,
		Tenants: []loadgen.Tenant{
			{Name: "alice", Key: "alice-key-123456", Mix: loadgen.MixHot, Seed: 1},
			{Name: "bob", Key: "bob-key-1234567", Mix: loadgen.MixHot, Seed: 2},
		},
		Concurrency:  2,
		Duration:     4 * time.Second,
		Artifact:     "table1",
		Sizing:       "quick",
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, tr := range rep.Tenants {
		total += tr.Completed
		if tr.Failed > 0 {
			t.Errorf("tenant %s: %d failed jobs", tr.Tenant, tr.Failed)
		}
	}
	if total < 8 {
		t.Fatalf("only %d jobs completed across both tenants; run too slow to measure", total)
	}
	for _, tr := range rep.Tenants {
		// Equal weights: each tenant owns ~half the throughput. A quarter
		// is the starvation line — generous enough for scheduling noise,
		// far above what a head-of-line-blocked tenant would see.
		if share := float64(tr.Completed) / float64(total); share < 0.25 {
			t.Errorf("tenant %s completed %d/%d jobs (share %.2f < 0.25): not a fair split",
				tr.Tenant, tr.Completed, total, share)
		}
		if tr.CacheHitRatio <= 0.9 {
			t.Errorf("tenant %s hot-mix cache-hit ratio %.2f (executed %d, cached %d); want > 0.9",
				tr.Tenant, tr.CacheHitRatio, tr.CellsExecuted, tr.CellsCached)
		}
		if tr.LatencyP50Millis <= 0 || tr.LatencyP99Millis < tr.LatencyP50Millis {
			t.Errorf("tenant %s latency percentiles inconsistent: p50=%.2fms p99=%.2fms",
				tr.Tenant, tr.LatencyP50Millis, tr.LatencyP99Millis)
		}
	}
	if rep.JobsPerSec <= 0 {
		t.Errorf("aggregate jobs/sec = %.2f; want > 0", rep.JobsPerSec)
	}
}

// TestFollowFailsOnClientError: a daemon that accepts a job and then
// answers 404 for it (as after a restart) fails the job. The follow must
// end at the first 404 and count the job failed, not poll until the run
// ends with the job counted nowhere.
func TestFollowFailsOnClientError(t *testing.T) {
	var polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"job-000001","state":"queued"}`))
			return
		}
		polls.Add(1)
		http.Error(w, `{"error":"unknown job"}`, http.StatusNotFound)
	}))
	defer ts.Close()
	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:  ts.URL,
		Tenants:  []loadgen.Tenant{{Name: "a", Mix: loadgen.MixHot, Seed: 1}},
		Duration: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Tenants[0]
	if tr.Failed < 1 || tr.Completed != 0 {
		t.Errorf("submitted=%d failed=%d completed=%d; want the 404 job counted failed",
			tr.Submitted, tr.Failed, tr.Completed)
	}
	if n := polls.Load(); n > 5 {
		t.Errorf("%d status polls in a 1s run; want the follow to end at the first 404", n)
	}
}

// attachWorker runs one dispatch.Worker against the test server until
// cleanup (same shape as the service package's dispatch tests).
func attachWorker(t *testing.T, ts *httptest.Server, name string, reg *harness.Registry) {
	t.Helper()
	w, err := dispatch.NewWorker(dispatch.WorkerOptions{
		Server:   ts.URL,
		Name:     name,
		Registry: reg,
		PollWait: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Errorf("worker %s never exited", name)
		}
	})
}
