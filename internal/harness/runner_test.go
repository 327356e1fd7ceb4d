package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coherentleak/internal/store"
)

// shuffledArtifact returns an artifact whose cells finish out of order
// under parallel execution (later cells sleep less), so any
// order-sensitivity in assembly would show up as reordered rows.
func shuffledArtifact(name string, cells int, ran *atomic.Int64) *Artifact {
	return &Artifact{
		Name:        name,
		Description: "shuffled " + name,
		File:        name + ".tsv",
		Header:      "cell\tvalue",
		Cells: func(p Plan) ([]Cell, error) {
			out := make([]Cell, cells)
			for i := range out {
				out[i] = Cell{
					Name: fmt.Sprintf("c%02d", i),
					Run: func() (CellOutput, error) {
						time.Sleep(time.Duration(cells-i) * time.Millisecond)
						if ran != nil {
							ran.Add(1)
						}
						return CellOutput{
							Rows:    []string{fmt.Sprintf("c%02d\t%d", i, i*i)},
							Summary: []string{fmt.Sprintf("%s c%02d done", name, i)},
						}, nil
					},
				}
			}
			return out, nil
		},
	}
}

func TestRunnerAssemblesInCellOrder(t *testing.T) {
	arts := []*Artifact{shuffledArtifact("alpha", 8, nil), shuffledArtifact("beta", 5, nil)}
	r := &Runner{Parallel: 8}
	rep, err := r.Run(context.Background(), Plan{Seed: 1}, arts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	for _, res := range rep.Results {
		for i, row := range res.Rows {
			if want := fmt.Sprintf("c%02d\t%d", i, i*i); row != want {
				t.Fatalf("%s row %d = %q, want %q", res.Artifact.Name, i, row, want)
			}
		}
	}
	if rep.Executed != 13 || rep.CacheHits != 0 || rep.Failed != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestRunnerSerialParallelIdenticalTSV is the engine-level determinism
// contract: the assembled bytes cannot depend on the worker count.
func TestRunnerSerialParallelIdenticalTSV(t *testing.T) {
	run := func(parallel int) []byte {
		r := &Runner{Parallel: parallel}
		rep, err := r.Run(context.Background(), Plan{Seed: 7}, []*Artifact{shuffledArtifact("gamma", 12, nil)})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results[0].TSV()
	}
	serial, parallel := run(1), run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("TSV differs:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestRunnerContinuesPastCellFailure pins the partial-failure behavior:
// one scenario's failure must not drop the remaining scenarios' rows.
func TestRunnerContinuesPastCellFailure(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	a := &Artifact{
		Name: "flaky", Description: "d", File: "flaky.tsv", Header: "h",
		Cells: func(p Plan) ([]Cell, error) {
			var cells []Cell
			for i := 0; i < 6; i++ {
				switch i {
				case 2:
					cells = append(cells, Cell{Name: "err", Run: func() (CellOutput, error) {
						return CellOutput{}, boom
					}})
				case 4:
					cells = append(cells, Cell{Name: "panic", Run: func() (CellOutput, error) {
						panic("cell exploded")
					}})
				default:
					cells = append(cells, Cell{Name: fmt.Sprintf("ok%d", i), Run: func() (CellOutput, error) {
						ran.Add(1)
						return CellOutput{Rows: []string{fmt.Sprintf("row%d", i)}}, nil
					}})
				}
			}
			return cells, nil
		},
	}
	r := &Runner{Parallel: 3}
	rep, err := r.Run(context.Background(), Plan{}, []*Artifact{a})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("healthy cells ran %d times, want 4", got)
	}
	if rep.Failed != 2 {
		t.Fatalf("Failed = %d, want 2", rep.Failed)
	}
	res := rep.Results[0]
	if want := []string{"row0", "row1", "row3", "row5"}; strings.Join(res.Rows, ",") != strings.Join(want, ",") {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
	aggErr := rep.Err()
	if aggErr == nil {
		t.Fatal("Err() = nil with failures present")
	}
	for _, want := range []string{"flaky/err", "boom", "flaky/panic", "cell exploded"} {
		if !strings.Contains(aggErr.Error(), want) {
			t.Fatalf("Err() %q missing %q", aggErr, want)
		}
	}
}

type recordingSink struct {
	names []string
	errOn string
}

func (s *recordingSink) WriteArtifact(res *ArtifactResult) error {
	if res.Artifact.Name == s.errOn {
		return errors.New("sink refused")
	}
	s.names = append(s.names, res.Artifact.Name)
	return nil
}

func TestRunnerFeedsSinksInArtifactOrder(t *testing.T) {
	arts := []*Artifact{
		shuffledArtifact("z", 4, nil),
		shuffledArtifact("a", 4, nil),
		shuffledArtifact("m", 4, nil),
	}
	sink := &recordingSink{}
	var progress bytes.Buffer
	r := &Runner{Parallel: 6, Progress: &progress, Sinks: []Sink{sink}}
	if _, err := r.Run(context.Background(), Plan{}, arts); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sink.names, " "); got != "z a m" {
		t.Fatalf("sink order = %q, want artifact order", got)
	}
	out := progress.String()
	if !strings.Contains(out, "[12/12]") {
		t.Fatalf("progress missing completion counter:\n%s", out)
	}
	if !strings.Contains(out, "z c03 done") {
		t.Fatalf("progress missing summary lines:\n%s", out)
	}
}

func TestRunnerSinkErrorIsFatal(t *testing.T) {
	sink := &recordingSink{errOn: "bad"}
	r := &Runner{Parallel: 2, Sinks: []Sink{sink}}
	_, err := r.Run(context.Background(), Plan{}, []*Artifact{shuffledArtifact("bad", 2, nil)})
	if err == nil || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("err = %v, want sink failure", err)
	}
}

func TestRunnerRejectsBadCellPlans(t *testing.T) {
	dup := &Artifact{
		Name: "dup", Description: "d", File: "d.tsv", Header: "h",
		Cells: func(p Plan) ([]Cell, error) {
			c := Cell{Name: "same", Run: func() (CellOutput, error) { return CellOutput{}, nil }}
			return []Cell{c, c}, nil
		},
	}
	if _, err := (&Runner{}).Run(context.Background(), Plan{}, []*Artifact{dup}); err == nil {
		t.Fatal("duplicate cell names accepted")
	}
	empty := &Artifact{
		Name: "empty", Description: "d", File: "e.tsv", Header: "h",
		Cells: func(p Plan) ([]Cell, error) { return nil, nil },
	}
	if _, err := (&Runner{}).Run(context.Background(), Plan{}, []*Artifact{empty}); err == nil {
		t.Fatal("empty cell plan accepted")
	}
}

func TestRunnerManifestCache(t *testing.T) {
	var ran atomic.Int64
	arts := []*Artifact{shuffledArtifact("cached", 6, &ran)}
	m := store.NewMemory()
	r := &Runner{Parallel: 4, Manifest: m}

	first, err := r.Run(context.Background(), Plan{Seed: 3}, arts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != 6 || first.CacheHits != 0 {
		t.Fatalf("first run report = %+v", first)
	}

	second, err := r.Run(context.Background(), Plan{Seed: 3}, arts)
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 6 {
		t.Fatalf("cells re-ran: %d executions total, want 6", got)
	}
	if second.Executed != 0 || second.CacheHits != 6 {
		t.Fatalf("second run report = %+v", second)
	}
	if !bytes.Equal(first.Results[0].TSV(), second.Results[0].TSV()) {
		t.Fatal("cached TSV differs from executed TSV")
	}
	if !bytes.Equal(
		[]byte(strings.Join(first.Results[0].Summary, "\n")),
		[]byte(strings.Join(second.Results[0].Summary, "\n"))) {
		t.Fatal("cached summary differs")
	}

	// Any input change — here the seed — must invalidate every cell.
	third, err := r.Run(context.Background(), Plan{Seed: 4}, arts)
	if err != nil {
		t.Fatal(err)
	}
	if third.Executed != 6 || third.CacheHits != 0 {
		t.Fatalf("seed change report = %+v", third)
	}
}

// TestRunnerContextCancellation pins the cancellation contract: cells
// already executing finish, undispatched cells are marked failed with
// the context error, sinks never fire, and Run returns the partial
// report plus an error wrapping context.Canceled.
func TestRunnerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	a := &Artifact{
		Name: "cancellable", Description: "d", File: "c.tsv", Header: "h",
		Cells: func(p Plan) ([]Cell, error) {
			cells := make([]Cell, 16)
			for i := range cells {
				cells[i] = Cell{Name: fmt.Sprintf("c%02d", i), Run: func() (CellOutput, error) {
					ran.Add(1)
					time.Sleep(2 * time.Millisecond)
					return CellOutput{Rows: []string{fmt.Sprintf("row%d", i)}}, nil
				}}
			}
			return cells, nil
		},
	}
	sink := &recordingSink{}
	r := &Runner{
		Parallel: 1,
		Sinks:    []Sink{sink},
		Observe: func(done, total int, rep CellReport) {
			if done == 2 {
				cancel()
			}
		},
	}
	rep, err := r.Run(ctx, Plan{}, []*Artifact{a})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "run cancelled") {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); got >= 16 {
		t.Fatalf("all %d cells ran despite cancellation", got)
	}
	if rep == nil {
		t.Fatal("cancelled run returned no partial report")
	}
	res := rep.Results[0]
	if len(res.Rows) == 0 || len(res.Rows) >= 16 {
		t.Fatalf("partial rows = %d, want some but not all", len(res.Rows))
	}
	for _, c := range res.Cells {
		if c.Err != nil && !errors.Is(c.Err, context.Canceled) {
			t.Fatalf("skipped cell error = %v", c.Err)
		}
	}
	if len(sink.names) != 0 {
		t.Fatalf("sinks fired on a cancelled run: %v", sink.names)
	}
}

// TestRunnerContextTimeout covers the deadline flavor the CLI's
// -timeout flag uses.
func TestRunnerContextTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := (&Runner{Parallel: 1}).Run(ctx, Plan{}, []*Artifact{shuffledArtifact("slowpoke", 40, nil)})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunnerObserveReportsEveryCell checks the structured per-cell hook
// the daemon's SSE stream rides on: one call per cell, monotone done
// counter, correct cached flags.
func TestRunnerObserveReportsEveryCell(t *testing.T) {
	m := store.NewMemory()
	var mu sync.Mutex
	var calls []CellReport
	var lastDone int
	r := &Runner{Parallel: 4, Manifest: m, Observe: func(done, total int, rep CellReport) {
		mu.Lock()
		defer mu.Unlock()
		if done != lastDone+1 || total != 6 {
			t.Errorf("observe counter %d/%d after %d", done, total, lastDone)
		}
		lastDone = done
		calls = append(calls, rep)
	}}
	arts := []*Artifact{shuffledArtifact("observed", 6, nil)}
	if _, err := r.Run(context.Background(), Plan{Seed: 9}, arts); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 6 {
		t.Fatalf("observe calls = %d, want 6", len(calls))
	}
	// Cached rerun still reports every cell, now flagged cached.
	calls, lastDone = nil, 0
	if _, err := r.Run(context.Background(), Plan{Seed: 9}, arts); err != nil {
		t.Fatal(err)
	}
	for _, c := range calls {
		if !c.Cached {
			t.Fatalf("rerun cell %s/%s not cached", c.Artifact, c.Cell)
		}
	}
}

func TestRunnerParallelDefaultsAndClamps(t *testing.T) {
	r := &Runner{}
	if got := r.parallel(100); got < 1 {
		t.Fatalf("parallel = %d", got)
	}
	if got := r.parallel(0); got != 1 {
		t.Fatalf("parallel(0) = %d, want 1", got)
	}
	r.Parallel = 64
	if got := r.parallel(3); got != 3 {
		t.Fatalf("parallel should clamp to job count, got %d", got)
	}
}
