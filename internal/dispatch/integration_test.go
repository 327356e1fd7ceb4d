package dispatch

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
)

// blockOnce makes one cell of the test grid hang on its first
// execution only, simulating a worker that stalls (or dies) mid-cell;
// the retry sails through.
type blockOnce struct {
	index   int
	runs    atomic.Int64
	release chan struct{}
}

// gridRegistry registers "grid": cells cells whose rows are a pure
// function of (seed, index), so any executor produces identical bytes.
func gridRegistry(cells int, block *blockOnce) *harness.Registry {
	reg := harness.NewRegistry()
	reg.MustRegister(&harness.Artifact{
		Name: "grid", Description: "deterministic test grid",
		File: "grid.tsv", Header: "cell\tvalue",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			out := make([]harness.Cell, cells)
			for i := range out {
				name := fmt.Sprintf("c%02d", i)
				out[i] = harness.Cell{Name: name, Run: func() (harness.CellOutput, error) {
					if block != nil && i == block.index && block.runs.Add(1) == 1 {
						<-block.release
					}
					return harness.CellOutput{
						Rows:    []string{fmt.Sprintf("%s\t%d", name, p.Seed*1000+uint64(i))},
						Summary: []string{name + " ok"},
					}, nil
				}}
			}
			return out, nil
		},
	})
	return reg
}

// startWorkers runs n dispatch.Worker clients against a coordinator URL
// and returns a stop function that shuts them down and waits.
func startWorkers(t *testing.T, url string, reg *harness.Registry, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerOptions{
			Server:   url,
			Name:     fmt.Sprintf("itw%d", i),
			Registry: reg,
			PollWait: 100 * time.Millisecond,
		})
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// runThroughFleet executes the registry through a dispatching Runner
// and returns the assembled result plus the run report.
func runThroughFleet(t *testing.T, f *Fleet, reg *harness.Registry, plan harness.Plan) *harness.RunReport {
	t.Helper()
	r := &harness.Runner{Dispatcher: f}
	rep, err := r.Run(context.Background(), plan, reg.Artifacts())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// serialTSV is the ground truth: the same plan on a serial local runner.
func serialTSV(t *testing.T, reg *harness.Registry, plan harness.Plan) []byte {
	t.Helper()
	r := &harness.Runner{Parallel: 1}
	rep, err := r.Run(context.Background(), plan, reg.Artifacts())
	if err != nil {
		t.Fatal(err)
	}
	return rep.Results[0].TSV()
}

// TestHTTPWorkersByteIdentity drives the full wire path — Fleet behind
// an HTTP mux, real Worker clients long-polling it — and requires the
// assembled TSV to be byte-identical to a serial in-process run, with
// every cell executed remotely.
func TestHTTPWorkersByteIdentity(t *testing.T) {
	reg := gridRegistry(12, nil)
	obs := &recObs{}
	f := NewFleet(Options{LeaseTTL: time.Hour, WorkerTTL: time.Hour, Observer: obs})
	defer f.Close()
	mux := http.NewServeMux()
	f.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	stop := startWorkers(t, ts.URL, reg, 4)
	defer stop()
	waitUntil(t, func() bool { return f.Stats().LiveWorkers == 4 })

	plan := harness.Plan{Seed: 5, Sizing: harness.SizingQuick}
	rep := runThroughFleet(t, f, reg, plan)
	if got, want := rep.Results[0].TSV(), serialTSV(t, reg, plan); !bytes.Equal(got, want) {
		t.Fatalf("fleet TSV differs from serial run:\n got: %q\nwant: %q", got, want)
	}
	for _, c := range rep.Results[0].Cells {
		if c.Worker == "" {
			t.Fatalf("cell %s ran in-process; want a fleet worker", c.Cell)
		}
	}
	if reclaims, dups, local := obs.snapshot(); reclaims != 0 || dups != 0 || local != 0 {
		t.Fatalf("healthy fleet run: reclaims=%d dups=%d local=%d", reclaims, dups, local)
	}

	// Workers deregister on shutdown, emptying the fleet.
	stop()
	waitUntil(t, func() bool { return f.Stats().LiveWorkers == 0 })
}

// TestHTTPWorkerStallsMidCellReclaim injects the ISSUE's fault over the
// real wire: one worker hangs inside a cell past its lease deadline,
// the reaper reclaims the lease, the surviving worker retries the cell,
// the job finishes byte-identical to a serial run — and when the stuck
// worker finally reports, its result is dropped as a duplicate.
func TestHTTPWorkerStallsMidCellReclaim(t *testing.T) {
	block := &blockOnce{index: 3, release: make(chan struct{})}
	reg := gridRegistry(6, block)
	obs := &recObs{}
	f := NewFleet(Options{LeaseTTL: 250 * time.Millisecond, Observer: obs})
	defer f.Close()
	mux := http.NewServeMux()
	f.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	stop := startWorkers(t, ts.URL, reg, 2)
	defer stop()
	waitUntil(t, func() bool { return f.Stats().LiveWorkers == 2 })

	plan := harness.Plan{Seed: 9, Sizing: harness.SizingQuick}
	rep := runThroughFleet(t, f, reg, plan)
	if got, want := rep.Results[0].TSV(), serialTSV(t, reg, plan); !bytes.Equal(got, want) {
		t.Fatalf("TSV after mid-cell stall differs from serial run:\n got: %q\nwant: %q", got, want)
	}
	if rep.Failed != 0 {
		t.Fatalf("failed cells = %d, want 0", rep.Failed)
	}
	reclaims, _, _ := obs.snapshot()
	if reclaims == 0 {
		t.Fatal("stalled lease was never reclaimed")
	}

	// Unstick the hung worker: its late result must be refused.
	close(block.release)
	waitUntil(t, func() bool {
		_, dups, _ := obs.snapshot()
		return dups >= 1
	})
}

// TestHTTPWorkerUnknownCellReportsFailure: a worker whose registry
// cannot resolve a leased cell reports a structured failure instead of
// crashing, and the failure surfaces in the cell report.
func TestHTTPWorkerUnknownCellReportsFailure(t *testing.T) {
	coordReg := gridRegistry(2, nil)
	workerReg := harness.NewRegistry() // out of sync: knows nothing
	f := NewFleet(Options{LeaseTTL: time.Hour, WorkerTTL: time.Hour, MaxAttempts: 1})
	defer f.Close()
	mux := http.NewServeMux()
	f.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	stop := startWorkers(t, ts.URL, workerReg, 1)
	defer stop()
	waitUntil(t, func() bool { return f.Stats().LiveWorkers == 1 })

	rep := runThroughFleet(t, f, coordReg, harness.Plan{Seed: 1, Sizing: harness.SizingQuick})
	if rep.Failed != 2 {
		t.Fatalf("failed = %d, want 2 (worker registry out of sync)", rep.Failed)
	}
	if rep.Err() == nil {
		t.Fatal("aggregated error missing")
	}
}

// TestFleetCompiledKernelByteIdentity runs a real experiment artifact
// (fig2, quick sizing, whose cells drive kernel-build noise through the
// fused access-stream executor) through HTTP fleet workers and requires
// the assembled TSV to be byte-identical to a serial in-process run:
// executor topology must be invisible in the output bytes.
func TestFleetCompiledKernelByteIdentity(t *testing.T) {
	reg := experiments.Artifacts()
	f := NewFleet(Options{LeaseTTL: time.Hour, WorkerTTL: time.Hour})
	defer f.Close()
	mux := http.NewServeMux()
	f.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	stop := startWorkers(t, ts.URL, reg, 2)
	defer stop()
	waitUntil(t, func() bool { return f.Stats().LiveWorkers == 2 })

	plan := harness.Plan{Cfg: machine.DefaultConfig(), Seed: experiments.DefaultSeed, Sizing: harness.SizingQuick}

	arts, err := reg.Select([]string{"fig2"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&harness.Runner{Dispatcher: f}).Run(context.Background(), plan, arts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Results[0].Cells {
		if c.Worker == "" {
			t.Fatalf("cell %s ran in-process; want a fleet worker", c.Cell)
		}
	}

	ref, err := (&harness.Runner{Parallel: 1}).Run(context.Background(), plan, arts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Results[0].TSV(), ref.Results[0].TSV(); !bytes.Equal(got, want) {
		t.Fatalf("fleet TSV differs from serial in-process run:\n got: %q\nwant: %q", got, want)
	}
}
