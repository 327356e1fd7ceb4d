package harness

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"coherentleak/internal/store"
)

// stripWalls zeroes the timing fields so two runs' reports compare.
func stripWalls(rep *RunReport) {
	rep.Wall = 0
	for _, res := range rep.Results {
		for i := range res.Cells {
			res.Cells[i].Wall = 0
		}
	}
}

// TestPrepareExecuteMatchesRun pins Run as exactly Prepare plus
// Execute: the same report, the same TSVs and summaries, whether the
// store starts empty or half full.
func TestPrepareExecuteMatchesRun(t *testing.T) {
	arts := []*Artifact{shuffledArtifact("one", 6, nil), shuffledArtifact("two", 4, nil)}
	plan := Plan{Seed: 11}
	// half stores the first artifact's cells only.
	half := func() *store.Memory {
		m := store.NewMemory()
		if _, err := (&Runner{Parallel: 2, Manifest: m}).Run(context.Background(), plan, arts[:1]); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, mk := range map[string]func() *store.Memory{"empty": store.NewMemory, "half": half} {
		t.Run(name, func(t *testing.T) {
			var runSink, execSink recordingSink
			want, err := (&Runner{Parallel: 3, Manifest: mk(), Sinks: []Sink{&runSink}}).Run(context.Background(), plan, arts)
			if err != nil {
				t.Fatal(err)
			}
			r := &Runner{Parallel: 3, Manifest: mk(), Sinks: []Sink{&execSink}}
			b, err := r.Prepare(plan, arts)
			if err != nil {
				t.Fatal(err)
			}
			if b.Pending() != want.Executed {
				t.Fatalf("Pending = %d, Run executed %d", b.Pending(), want.Executed)
			}
			got, err := r.Execute(context.Background(), b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Results {
				if !bytes.Equal(got.Results[i].TSV(), want.Results[i].TSV()) {
					t.Fatalf("%s TSV differs", want.Results[i].Artifact.Name)
				}
			}
			stripWalls(want)
			stripWalls(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Prepare+Execute report differs from Run:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(execSink.names, runSink.names) {
				t.Fatalf("sinks fed %v, Run fed %v", execSink.names, runSink.names)
			}
		})
	}
}

// TestPrepareFullyStoredPlan: a plan whose cells are all stored
// prepares with nothing pending and executes nothing, without looking
// any cell up a second time.
func TestPrepareFullyStoredPlan(t *testing.T) {
	var ran atomic.Int64
	arts := []*Artifact{shuffledArtifact("stored", 5, &ran)}
	m := store.NewMemory()
	r := &Runner{Parallel: 2, Manifest: m}
	if _, err := r.Run(context.Background(), Plan{Seed: 2}, arts); err != nil {
		t.Fatal(err)
	}
	b, err := r.Prepare(Plan{Seed: 2}, arts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", b.Pending())
	}
	before := m.Stats()
	rep, err := r.Execute(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 0 || rep.CacheHits != 5 || ran.Load() != 5 {
		t.Fatalf("report %+v after %d executions, want 0 executed, 5 cached", rep, ran.Load())
	}
	if after := m.Stats(); after != before {
		t.Fatalf("Execute touched the store: %+v -> %+v", before, after)
	}
}

// TestExecuteServesEntryStoredAfterPrepare: a cell that missed at
// Prepare but was stored by another run before Execute is served from
// the store, not executed again.
func TestExecuteServesEntryStoredAfterPrepare(t *testing.T) {
	var ran atomic.Int64
	arts := []*Artifact{shuffledArtifact("late", 4, &ran)}
	m := store.NewMemory()
	r := &Runner{Parallel: 2, Manifest: m}
	b, err := r.Prepare(Plan{Seed: 5}, arts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", b.Pending())
	}
	if _, err := (&Runner{Parallel: 2, Manifest: m}).Run(context.Background(), Plan{Seed: 5}, arts); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 0 || rep.CacheHits != 4 || ran.Load() != 4 {
		t.Fatalf("report %+v after %d executions, want every cell cached", rep, ran.Load())
	}
}

// TestExecuteObservesEachCellOnce: held hits and executed cells alike
// yield exactly one Observe call, and done counts up to total.
func TestExecuteObservesEachCellOnce(t *testing.T) {
	arts := []*Artifact{shuffledArtifact("mixed", 6, nil)}
	m := store.NewMemory()
	if _, err := (&Runner{Parallel: 2, Manifest: m}).Run(context.Background(), Plan{Seed: 8}, arts); err != nil {
		t.Fatal(err)
	}
	m.SetLimit(3) // keep half the cells stored
	seen := map[string]int{}
	cachedCells, lastDone := 0, 0
	r := &Runner{Parallel: 3, Manifest: m, Observe: func(done, total int, rep CellReport) {
		if done != lastDone+1 || total != 6 {
			t.Errorf("observe %d/%d after %d", done, total, lastDone)
		}
		lastDone = done
		seen[fmt.Sprintf("%s/%s", rep.Artifact, rep.Cell)]++
		if rep.Cached {
			cachedCells++
		}
	}}
	b, err := r.Prepare(Plan{Seed: 8}, arts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", b.Pending())
	}
	if _, err := r.Execute(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if lastDone != 6 || len(seen) != 6 || cachedCells != 3 {
		t.Fatalf("done %d, %d distinct cells, %d cached; want 6, 6, 3", lastDone, len(seen), cachedCells)
	}
	for cell, n := range seen {
		if n != 1 {
			t.Fatalf("%s observed %d times", cell, n)
		}
	}
}
