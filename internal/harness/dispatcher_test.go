package harness

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"coherentleak/internal/store"
)

// countingDispatcher executes tasks via their in-process body and
// records every dispatch, so tests can assert what was (not) shipped.
type countingDispatcher struct {
	name string
	err  error

	mu    sync.Mutex
	tasks []CellTask
}

func (d *countingDispatcher) Dispatch(ctx context.Context, t CellTask) (CellOutput, string, error) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
	if d.err != nil {
		return CellOutput{}, d.name, d.err
	}
	out, err := t.Run()
	return out, d.name, err
}

func (d *countingDispatcher) calls() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tasks)
}

// TestRunnerDispatcherByteIdentity: routing cells through a Dispatcher
// must not change the assembled bytes, and the reports must carry the
// executor's identity.
func TestRunnerDispatcherByteIdentity(t *testing.T) {
	arts := func() []*Artifact { return []*Artifact{shuffledArtifact("delta", 9, nil)} }
	local := &Runner{Parallel: 1}
	lrep, err := local.Run(context.Background(), Plan{Seed: 3}, arts())
	if err != nil {
		t.Fatal(err)
	}

	d := &countingDispatcher{name: "w1"}
	remote := &Runner{Dispatcher: d}
	rrep, err := remote.Run(context.Background(), Plan{Seed: 3}, arts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lrep.Results[0].TSV(), rrep.Results[0].TSV()) {
		t.Fatal("dispatched TSV differs from local run")
	}
	if d.calls() != 9 {
		t.Fatalf("dispatch calls = %d, want 9", d.calls())
	}
	for _, c := range rrep.Results[0].Cells {
		if c.Worker != "w1" {
			t.Fatalf("cell %s worker = %q, want w1", c.Cell, c.Worker)
		}
	}
	// Tasks carry everything a remote executor needs.
	for _, task := range d.tasks {
		if task.Artifact != "delta" || task.Cell == "" || task.ConfigDigest == "" || task.Run == nil {
			t.Fatalf("incomplete task: %+v", task)
		}
	}
}

// TestRunnerCacheConsultedBeforeDispatch pins the satellite contract:
// a cell satisfied by the manifest is never handed to the dispatcher,
// so cached cells cannot ship to remote workers.
func TestRunnerCacheConsultedBeforeDispatch(t *testing.T) {
	m := store.NewMemory()
	arts := func() []*Artifact { return []*Artifact{shuffledArtifact("epsilon", 5, nil)} }

	warm := &Runner{Parallel: 2, Manifest: m}
	if _, err := warm.Run(context.Background(), Plan{Seed: 11}, arts()); err != nil {
		t.Fatal(err)
	}

	d := &countingDispatcher{name: "w1"}
	r := &Runner{Manifest: m, Dispatcher: d}
	rep, err := r.Run(context.Background(), Plan{Seed: 11}, arts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 5 || rep.Executed != 0 {
		t.Fatalf("report = %+v, want all cached", rep)
	}
	if d.calls() != 0 {
		t.Fatalf("cached cells were dispatched %d time(s)", d.calls())
	}
	// A different seed misses the cache and dispatches again.
	if _, err := r.Run(context.Background(), Plan{Seed: 12}, arts()); err != nil {
		t.Fatal(err)
	}
	if d.calls() != 5 {
		t.Fatalf("cold cells dispatched %d time(s), want 5", d.calls())
	}
	// Dispatched outputs land in the manifest like local ones.
	d2 := &countingDispatcher{name: "w2"}
	r2 := &Runner{Manifest: m, Dispatcher: d2}
	rep, err = r2.Run(context.Background(), Plan{Seed: 12}, arts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 5 || d2.calls() != 0 {
		t.Fatalf("dispatched outputs not cached: %+v, %d dispatches", rep, d2.calls())
	}
}

// TestRunnerDispatcherErrorFailsCell: a dispatch failure is a per-cell
// failure, not an engine abort.
func TestRunnerDispatcherErrorFailsCell(t *testing.T) {
	d := &countingDispatcher{name: "w1", err: errors.New("worker exploded")}
	r := &Runner{Dispatcher: d}
	rep, err := r.Run(context.Background(), Plan{Seed: 1}, []*Artifact{shuffledArtifact("zeta", 3, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 3 {
		t.Fatalf("failed = %d, want 3", rep.Failed)
	}
	if rep.Err() == nil {
		t.Fatal("aggregated error missing")
	}
	for _, c := range rep.Results[0].Cells {
		if c.Err == nil || c.Worker != "w1" {
			t.Fatalf("cell report = %+v", c)
		}
	}
}

// TestRunnerDispatcherUnboundedFanout: with a dispatcher and Parallel
// unset, every cell is in flight at once (the dispatcher is the bound).
func TestRunnerDispatcherUnboundedFanout(t *testing.T) {
	r := &Runner{Dispatcher: &countingDispatcher{}}
	if got := r.workers(37); got != 37 {
		t.Fatalf("workers = %d, want 37", got)
	}
	r.Parallel = 4
	if got := r.workers(37); got != 4 {
		t.Fatalf("explicit Parallel ignored: %d", got)
	}
}
