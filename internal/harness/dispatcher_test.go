package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coherentleak/internal/store"
)

// countingDispatcher executes every task the way a worker does: it
// re-derives the cell from its registry by plan, artifact and cell
// name, then runs it. It records every dispatch, so tests can assert
// what was (not) shipped.
type countingDispatcher struct {
	name string
	reg  *Registry
	err  error

	mu    sync.Mutex
	tasks []CellTask
}

func newCountingDispatcher(name string, arts ...*Artifact) *countingDispatcher {
	reg := NewRegistry()
	for _, a := range arts {
		reg.MustRegister(a)
	}
	return &countingDispatcher{name: name, reg: reg}
}

func (d *countingDispatcher) Dispatch(ctx context.Context, t CellTask) (CellOutput, string, error) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
	if d.err != nil {
		return CellOutput{}, d.name, d.err
	}
	a, ok := d.reg.Get(t.Artifact)
	if !ok {
		return CellOutput{}, d.name, fmt.Errorf("unknown artifact %q", t.Artifact)
	}
	cells, err := a.Cells(t.Plan)
	if err != nil {
		return CellOutput{}, d.name, err
	}
	for _, c := range cells {
		if c.Name == t.Cell {
			out, err := RunCell(c)
			return out, d.name, err
		}
	}
	return CellOutput{}, d.name, fmt.Errorf("unknown cell %s/%s", t.Artifact, t.Cell)
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

	d := newCountingDispatcher("w1", arts()[0])
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
		if task.Artifact != "delta" || task.Cell == "" || task.ConfigDigest == "" || task.Plan.Seed != 3 {
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

	d := newCountingDispatcher("w1", arts()[0])
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
	d2 := newCountingDispatcher("w2", arts()[0])
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

// handBack answers ErrNotDispatched for every cell, as a fleet with no
// live worker does.
type handBack struct{}

func (handBack) Dispatch(context.Context, CellTask) (CellOutput, string, error) {
	return CellOutput{}, "", fmt.Errorf("%w: no live worker", ErrNotDispatched)
}

// gatedDispatcher accepts every cell but answers none until n cells
// are in Dispatch at once.
type gatedDispatcher struct {
	n   int
	mu  sync.Mutex
	in  int
	all chan struct{}
}

func (d *gatedDispatcher) Dispatch(ctx context.Context, t CellTask) (CellOutput, string, error) {
	d.mu.Lock()
	if d.in++; d.in == d.n {
		close(d.all)
	}
	d.mu.Unlock()
	select {
	case <-d.all:
		return CellOutput{Rows: []string{t.Cell}}, "w1", nil
	case <-ctx.Done():
		return CellOutput{}, "w1", ctx.Err()
	}
}

// peakArtifact has cells cells; each records in peak the most cells
// executing in-process at once.
func peakArtifact(cells int, peak *atomic.Int64) *Artifact {
	var running atomic.Int64
	return &Artifact{
		Name: "bounded", Description: "d", File: "b.tsv", Header: "h",
		Cells: func(p Plan) ([]Cell, error) {
			out := make([]Cell, cells)
			for i := range out {
				out[i] = Cell{Name: fmt.Sprintf("c%02d", i), Run: func() (CellOutput, error) {
					n := running.Add(1)
					for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
					}
					time.Sleep(2 * time.Millisecond)
					running.Add(-1)
					return CellOutput{Rows: []string{fmt.Sprint(i)}}, nil
				}}
			}
			return out, nil
		},
	}
}

// TestRunnerParallelBoundsInProcessCells pins what Parallel means: it
// bounds the cells executing in-process, whether no Dispatcher is set
// or the Dispatcher hands every cell back.
func TestRunnerParallelBoundsInProcessCells(t *testing.T) {
	const cells = 12
	var peak atomic.Int64
	art := peakArtifact(cells, &peak)
	for _, d := range []Dispatcher{nil, handBack{}} {
		peak.Store(0)
		rep, err := (&Runner{Parallel: 2, Dispatcher: d}).Run(context.Background(), Plan{}, []*Artifact{art})
		if err != nil || rep.Executed != cells || rep.Failed != 0 {
			t.Fatalf("dispatcher %T: report %+v, err %v", d, rep, err)
		}
		if got := peak.Load(); got > 2 {
			t.Fatalf("dispatcher %T: %d cells executed in-process at once, want <= 2", d, got)
		}
		for _, c := range rep.Results[0].Cells {
			if c.Worker != "" {
				t.Fatalf("in-process cell %s reports worker %q", c.Cell, c.Worker)
			}
		}
	}
}

// TestRunnerDispatcherUnboundedFanout: every cell a Dispatcher accepts
// is in flight at once, whether Parallel is unset or smaller than the
// cell count; Parallel bounds only in-process cells.
func TestRunnerDispatcherUnboundedFanout(t *testing.T) {
	const cells = 37
	var peak atomic.Int64
	art := peakArtifact(cells, &peak)
	for _, parallel := range []int{0, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		gate := &gatedDispatcher{n: cells, all: make(chan struct{})}
		peak.Store(0)
		rep, err := (&Runner{Parallel: parallel, Dispatcher: gate}).Run(ctx, Plan{}, []*Artifact{art})
		cancel()
		if err != nil || rep.Failed != 0 {
			t.Fatalf("Parallel=%d: accepted cells were not all in flight at once: report %+v, err %v", parallel, rep, err)
		}
		if got := peak.Load(); got != 0 {
			t.Fatalf("Parallel=%d: accepted cells executed in-process (peak %d)", parallel, got)
		}
	}
}
