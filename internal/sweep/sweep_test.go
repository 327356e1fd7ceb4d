package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func rawValues(vals ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		out[i] = json.RawMessage(v)
	}
	return out
}

func f64(v float64) *float64 { return &v }
func u64(v uint64) *uint64   { return &v }

// testSpec sweeps a latency knob and the seed with a tsv objective.
func testSpec() Spec {
	return Spec{
		Name:      "t",
		Artifacts: []string{"grid"},
		Sizing:    "quick",
		Axes: []Axis{
			{Param: "Latencies.QPI", Values: rawValues("40", "60")},
			{Param: "seed", Values: rawValues("1", "2", "3")},
		},
		Objective: ObjectiveSpec{Artifact: "grid", Column: "value", Aggregate: "max"},
	}
}

func TestGridExpansionDeterministic(t *testing.T) {
	spec := testSpec()
	pts, err := Expand(spec, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6", len(pts))
	}
	// First axis slowest, second fastest; seed axis overrides base seed.
	wantSeeds := []uint64{1, 2, 3, 1, 2, 3}
	for i, pt := range pts {
		if pt.Index != i {
			t.Fatalf("point %d has index %d", i, pt.Index)
		}
		if pt.Seed != wantSeeds[i] {
			t.Fatalf("point %d seed = %d, want %d", i, pt.Seed, wantSeeds[i])
		}
		wantQPI := "40"
		if i >= 3 {
			wantQPI = "60"
		}
		if want := fmt.Sprintf(`{"Latencies":{"QPI":%s}}`, wantQPI); string(pt.Config) != want {
			t.Fatalf("point %d config = %s, want %s", i, pt.Config, want)
		}
	}
	// A second expansion is identical.
	again, err := Expand(spec, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, again) {
		t.Fatal("expansion is not deterministic")
	}
}

func TestRangeAxisGrid(t *testing.T) {
	spec := Spec{
		Axes:      []Axis{{Param: "Latencies.Ring", Min: f64(10), Max: f64(20), Steps: 3, Ints: true}},
		Objective: ObjectiveSpec{Artifact: "a", Column: "c"},
	}
	pts, err := Expand(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pt := range pts {
		got = append(got, pt.Params[0].Display())
	}
	if want := []string{"10", "15", "20"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("range axis values = %v, want %v", got, want)
	}
	if pts[0].Seed != 7 {
		t.Fatalf("default seed not applied: %d", pts[0].Seed)
	}
}

func TestSpecConfigMergesUnderAxes(t *testing.T) {
	spec := Spec{
		Config:    json.RawMessage(`{"Latencies":{"Ring":12},"Sockets":2}`),
		Axes:      []Axis{{Param: "Latencies.QPI", Values: rawValues("40")}},
		Objective: ObjectiveSpec{Artifact: "a", Column: "c"},
	}
	pts, err := Expand(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Sockets   int
		Latencies struct{ Ring, QPI float64 }
	}
	if err := json.Unmarshal(pts[0].Config, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Sockets != 2 || doc.Latencies.Ring != 12 || doc.Latencies.QPI != 40 {
		t.Fatalf("merged config = %s", pts[0].Config)
	}

	// Axis path through a non-object spec override is rejected.
	bad := spec
	bad.Config = json.RawMessage(`{"Latencies":3}`)
	if _, err := Expand(bad, 0); err == nil {
		t.Fatal("conflicting axis path accepted")
	}
}

func TestBudgetEnforced(t *testing.T) {
	spec := Spec{
		MaxPoints: 4,
		Axes: []Axis{
			{Param: "Latencies.QPI", Values: rawValues("1", "2", "3")},
			{Param: "seed", Values: rawValues("1", "2")},
		},
		Objective: ObjectiveSpec{Artifact: "a", Column: "c"},
	}
	if _, err := Expand(spec, 0); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("6-point grid with budget 4 expanded: %v", err)
	}
	spec.Strategy = StrategyRandom
	spec.Samples = 5
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("5 samples with budget 4 accepted: %v", err)
	}

	// A few-hundred-byte spec naming a 5,000,000-step range axis is
	// rejected from its size alone, without building the axis.
	long := Spec{
		Axes:      []Axis{{Param: "Latencies.QPI", Min: f64(1), Max: f64(100), Steps: 5_000_000, Ints: true}},
		Objective: ObjectiveSpec{Artifact: "a", Column: "c"},
	}
	const want = "sweep: grid expands to more than the point budget 1024 (use maxPoints, random sampling, or fewer axis values)"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Expand(long, 0)
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != want {
		t.Fatalf("5e6-step axis: Expand = %v, want %q", err, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting the 5e6-step axis allocated %d bytes, want < 1 MiB", alloc)
	}

	// A product of axis lengths past MaxInt is rejected, not wrapped.
	huge := Spec{
		MaxPoints: math.MaxInt,
		Axes: []Axis{
			{Param: "Latencies.QPI", Min: f64(1), Max: f64(2), Steps: math.MaxInt / 2},
			{Param: "Latencies.LLC", Min: f64(1), Max: f64(2), Steps: 3},
		},
		Objective: ObjectiveSpec{Artifact: "a", Column: "c"},
	}
	if _, err := huge.Size(); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("overflowing grid sized without error: %v", err)
	}
}

func TestRandomSamplingDeterministic(t *testing.T) {
	spec := Spec{
		Strategy:   StrategyRandom,
		Samples:    16,
		SampleSeed: 42,
		Axes: []Axis{
			{Param: "Latencies.QPI", Min: f64(30), Max: f64(90), Ints: true},
			{Param: "Protocol", Values: rawValues(`"MESI"`, `"MESIF"`, `"MOESI"`)},
		},
		Objective: ObjectiveSpec{Artifact: "a", Column: "c"},
	}
	a, err := Expand(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("random expansion is not deterministic for a fixed sample seed")
	}
	// Values actually vary and respect the range.
	distinct := map[string]bool{}
	for _, pt := range a {
		var qpi float64
		var doc struct{ Latencies struct{ QPI float64 } }
		if err := json.Unmarshal(pt.Config, &doc); err != nil {
			t.Fatal(err)
		}
		qpi = doc.Latencies.QPI
		if qpi < 30 || qpi > 90 {
			t.Fatalf("sampled QPI %v outside [30, 90]", qpi)
		}
		distinct[string(pt.Config)] = true
	}
	if len(distinct) < 2 {
		t.Fatal("random sampling produced a single distinct point")
	}
	// SampleSeed 0 derives from the experiment seed: still deterministic,
	// but different seeds sample differently.
	spec.SampleSeed = 0
	c1, _ := Expand(spec, 5)
	c2, _ := Expand(spec, 5)
	d, _ := Expand(spec, 6)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("derived sample seed is not deterministic")
	}
	if reflect.DeepEqual(c1, d) {
		t.Fatal("different experiment seeds produced identical samples")
	}
}

func TestSpecValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"no axes":          func(s *Spec) { s.Axes = nil },
		"dup axis":         func(s *Spec) { s.Axes = append(s.Axes, s.Axes[0]) },
		"empty param":      func(s *Spec) { s.Axes[0].Param = " " },
		"no values":        func(s *Spec) { s.Axes[0].Values = nil },
		"bad strategy":     func(s *Spec) { s.Strategy = "genetic" },
		"bad seed value":   func(s *Spec) { s.Axes[1].Values = rawValues(`"x"`) },
		"neg topk":         func(s *Spec) { s.TopK = -1 },
		"bad direction":    func(s *Spec) { s.Objective.Direction = "sideways" },
		"no obj artifact":  func(s *Spec) { s.Objective.Artifact = "" },
		"no obj column":    func(s *Spec) { s.Objective.Column = "" },
		"bad aggregate":    func(s *Spec) { s.Objective.Aggregate = "median" },
		"bad obj kind":     func(s *Spec) { s.Objective.Kind = "nope" },
		"invalid config":   func(s *Spec) { s.Config = json.RawMessage("{") },
		"random no count":  func(s *Spec) { s.Strategy = StrategyRandom },
		"max < min range":  func(s *Spec) { s.Axes[0] = Axis{Param: "X", Min: f64(2), Max: f64(1)} },
		"range w/o steps ": func(s *Spec) { s.Axes[0] = Axis{Param: "X", Min: f64(1), Max: f64(2)} },
	} {
		spec := testSpec()
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// gridRunner fabricates deterministic results: value = seed*100 + QPI.
func gridRunner(t *testing.T, delayByIndex func(i int) time.Duration) PointRunner {
	return RunnerFunc(func(ctx context.Context, pt Point) (PointResult, error) {
		if delayByIndex != nil {
			time.Sleep(delayByIndex(pt.Index))
		}
		var doc struct{ Latencies struct{ QPI float64 } }
		if len(pt.Config) > 0 {
			if err := json.Unmarshal(pt.Config, &doc); err != nil {
				t.Error(err)
			}
		}
		v := float64(pt.Seed)*100 + doc.Latencies.QPI
		tsv := fmt.Sprintf("cell\tvalue\nc0\t%g\n", v)
		return PointResult{
			JobID: fmt.Sprintf("job-%d", pt.Index),
			TSV:   map[string][]byte{"grid": []byte(tsv)},
			Cells: CellCounts{Total: 1, Executed: 1},
		}, nil
	})
}

func TestRunRanksFrontierDeterministically(t *testing.T) {
	spec := testSpec()
	spec.TopK = 3

	run := func(delay func(int) time.Duration, inFlight int) []byte {
		rep, err := Run(context.Background(), spec, Options{
			Runner:   gridRunner(t, delay),
			InFlight: inFlight,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != 6 || rep.Failed != 0 {
			t.Fatalf("report = %+v", rep)
		}
		return rep.FrontierTSV()
	}

	// Serial, parallel, and parallel with adversarial per-point delays
	// (reverse completion order) must render identical frontiers.
	base := run(nil, 1)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		delays := make([]time.Duration, 6)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(12)) * time.Millisecond
		}
		got := run(func(i int) time.Duration { return delays[i] }, 6)
		if string(got) != string(base) {
			t.Fatalf("frontier differs across completion orders:\n got: %q\nwant: %q", got, base)
		}
	}

	// The ranking itself: max over value column -> seed 3 / QPI 60 first.
	lines := strings.Split(strings.TrimSpace(string(base)), "\n")
	if lines[0] != "rank\tpoint\tscore\tseed\tLatencies.QPI\tseed" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 1+3 {
		t.Fatalf("topK=3 frontier has %d rows", len(lines)-1)
	}
	if !strings.HasPrefix(lines[1], "1\t5\t360\t3\t60\t3") {
		t.Fatalf("top row = %q", lines[1])
	}
}

func TestFrontierTieBreaksOnPointIndex(t *testing.T) {
	f := NewFrontier(true, 0)
	f.Add(Entry{Point: Point{Index: 4}, Score: 1})
	f.Add(Entry{Point: Point{Index: 2}, Score: 1})
	f.Add(Entry{Point: Point{Index: 3}, Score: 2})
	got := f.Entries()
	if got[0].Point.Index != 3 || got[1].Point.Index != 2 || got[2].Point.Index != 4 {
		t.Fatalf("order = %v", got)
	}
	// Minimizing frontier flips the score order, keeps the tie-break.
	fm := NewFrontier(false, 2)
	fm.Add(Entry{Point: Point{Index: 9}, Score: 5})
	fm.Add(Entry{Point: Point{Index: 1}, Score: 7})
	if changed := fm.Add(Entry{Point: Point{Index: 0}, Score: 6}); !changed {
		t.Fatal("mid insert reported unchanged")
	}
	if changed := fm.Add(Entry{Point: Point{Index: 8}, Score: 9}); changed {
		t.Fatal("below-cut insert reported changed")
	}
	got = fm.Entries()
	if len(got) != 2 || got[0].Score != 5 || got[1].Score != 6 {
		t.Fatalf("min frontier = %v", got)
	}
}

// TestBackoffOnAdmissionControl pins the 429 satellite: the engine
// sleeps the computed Retry-After and resubmits rather than failing
// the point, and gives up after MaxRetries.
func TestBackoffOnAdmissionControl(t *testing.T) {
	spec := Spec{
		Axes:      []Axis{{Param: "seed", Values: rawValues("1")}},
		Objective: ObjectiveSpec{Artifact: "grid", Column: "value"},
	}
	var calls atomic.Int64
	runner := RunnerFunc(func(ctx context.Context, pt Point) (PointResult, error) {
		if calls.Add(1) <= 2 {
			return PointResult{}, &RetryError{After: 1500 * time.Millisecond, Err: errors.New("queue full")}
		}
		return PointResult{TSV: map[string][]byte{"grid": []byte("cell\tvalue\nc\t1\n")}, Cells: CellCounts{Total: 1, Executed: 1}}, nil
	})
	var slept []time.Duration
	var backoffEvents int
	rep, err := Run(context.Background(), spec, Options{
		Runner: runner,
		Observe: func(ev Event) {
			if ev.Type == EventBackoff {
				backoffEvents++
				if ev.Point.RetryAfter != 1500*time.Millisecond {
					t.Errorf("backoff event wait = %v", ev.Point.RetryAfter)
				}
			}
		},
	}.WithSleep(func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 || rep.Failed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Retries != 2 || backoffEvents != 2 {
		t.Fatalf("retries = %d, backoff events = %d, want 2 and 2", rep.Retries, backoffEvents)
	}
	if len(slept) != 2 || slept[0] != 1500*time.Millisecond || slept[1] != 1500*time.Millisecond {
		t.Fatalf("slept = %v, want two 1.5s waits", slept)
	}
	if rep.Points[0].Retries != 2 || !rep.Points[0].Scored {
		t.Fatalf("point report = %+v", rep.Points[0])
	}

	// Unbounded rejection exhausts MaxRetries and fails the point.
	calls.Store(0)
	always := RunnerFunc(func(ctx context.Context, pt Point) (PointResult, error) {
		return PointResult{}, &RetryError{After: time.Second, Err: errors.New("queue full")}
	})
	rep, err = Run(context.Background(), spec, Options{Runner: always, MaxRetries: 3}.
		WithSleep(func(ctx context.Context, d time.Duration) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Points[0].Err == nil {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.Points[0].Err.Error(), "admission control") {
		t.Fatalf("err = %v", rep.Points[0].Err)
	}
}

func TestRunPointFailureDoesNotAbortSweep(t *testing.T) {
	spec := Spec{
		Axes:      []Axis{{Param: "seed", Values: rawValues("1", "2", "3")}},
		Objective: ObjectiveSpec{Artifact: "grid", Column: "value"},
	}
	runner := RunnerFunc(func(ctx context.Context, pt Point) (PointResult, error) {
		if pt.Seed == 2 {
			return PointResult{}, errors.New("boom")
		}
		tsv := fmt.Sprintf("cell\tvalue\nc\t%d\n", pt.Seed)
		return PointResult{TSV: map[string][]byte{"grid": []byte(tsv)}}, nil
	})
	rep, err := Run(context.Background(), spec, Options{Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.Failed != 1 {
		t.Fatalf("report: completed %d failed %d", rep.Completed, rep.Failed)
	}
	if rep.Frontier.Len() != 2 {
		t.Fatalf("frontier len = %d", rep.Frontier.Len())
	}
}

func TestRunCancellation(t *testing.T) {
	spec := Spec{
		Axes:      []Axis{{Param: "seed", Values: rawValues("1", "2", "3", "4", "5", "6", "7", "8")}},
		Objective: ObjectiveSpec{Artifact: "grid", Column: "value"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	runner := RunnerFunc(func(ctx context.Context, pt Point) (PointResult, error) {
		if ran.Add(1) == 2 {
			cancel()
		}
		select {
		case <-ctx.Done():
			return PointResult{}, ctx.Err()
		default:
		}
		return PointResult{TSV: map[string][]byte{"grid": []byte("cell\tvalue\nc\t1\n")}}, nil
	})
	rep, err := Run(ctx, spec, Options{Runner: runner, InFlight: 1})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if rep == nil || rep.Completed+rep.Failed != 8 {
		t.Fatalf("partial report = %+v", rep)
	}
}

func TestObjectiveDescribe(t *testing.T) {
	obj, err := BuildObjective(ObjectiveSpec{
		Artifact: "capacity", Column: "info_kbps",
		Direction: "max", Filter: map[string]string{"noise": "8"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.Describe(); got != "maximize max(capacity.info_kbps) where noise=8" {
		t.Fatalf("describe = %q", got)
	}
	// Scoring a result without the artifact is an error, not a zero.
	if _, err := obj.Score(PointResult{TSV: map[string][]byte{}}); err == nil {
		t.Fatal("missing artifact scored")
	}
}

func TestSeedAxisDefaultBase(t *testing.T) {
	spec := Spec{
		Seed:      u64(77),
		Axes:      []Axis{{Param: "Latencies.QPI", Values: rawValues("40")}},
		Objective: ObjectiveSpec{Artifact: "a", Column: "c"},
	}
	pts, err := Expand(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Seed != 77 {
		t.Fatalf("spec seed not applied: %d", pts[0].Seed)
	}
}

// TestExampleSpecsValid keeps the checked-in example specs honest: each
// must decode strictly, validate, and expand into a non-empty grid.
func TestExampleSpecsValid(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "sweeps", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example sweep specs found: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		pts, err := Expand(spec, 1)
		if err != nil {
			t.Errorf("%s: %v", f, err)
		} else if len(pts) == 0 {
			t.Errorf("%s: expanded to zero points", f)
		}
	}
}
