package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
	"coherentleak/internal/store"
)

// paper-quick-cold: one harness.Runner pass over the fourteen pinned
// artifacts at quick sizing into an empty memory store, the batch run a
// researcher makes on a new seed. Set-up builds the registry, selects
// the artifacts, plans their cells, and runs the cheap artifacts
// serially into a throwaway store: that warms the cell paths and gives
// the reference the pass's TSVs are checked against.

// paperSetupReps repeats the set-up so its median is steady.
const paperSetupReps = 5

type paperEnv struct {
	r      *run
	arts   []*harness.Artifact
	plan   harness.Plan
	runner *harness.Runner
	ref    map[string][]byte // serial reference TSVs of the cheap artifacts
	rep    *harness.RunReport
}

// paperState is what paper-quick-cold keeps across units.
type paperState struct {
	digests   map[int]map[string]string // by unit index, then artifact
	runs      []harnessRun
	cellByArt map[string]float64
}

var paper = &paperState{digests: map[int]map[string]string{}, cellByArt: map[string]float64{}}

func setupPaper(r *run, traced bool) (env, error) {
	arts, err := experiments.Artifacts().Select(paperArtifacts)
	if err != nil {
		return nil, err
	}
	plan := harness.Plan{Cfg: machine.DefaultConfig(), Seed: paperSeed(r.seed, r.index), Sizing: sizing}
	if err := plan.Cfg.Validate(); err != nil {
		return nil, err
	}
	cells := 0
	for _, a := range arts {
		cs, err := a.Cells(plan)
		if err != nil {
			return nil, fmt.Errorf("planning %s: %w", a.Name, err)
		}
		cells += len(cs)
	}
	if cells == 0 {
		return nil, fmt.Errorf("no cells planned")
	}
	cheap, err := experiments.Artifacts().Select(coldArtifacts)
	if err != nil {
		return nil, err
	}
	warm, err := (&harness.Runner{Parallel: 1, Manifest: store.NewMemory()}).Run(context.Background(), plan, cheap)
	if err == nil {
		err = warm.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	ref := make(map[string][]byte, len(warm.Results))
	for _, res := range warm.Results {
		ref[res.Artifact.Name] = res.TSV()
	}
	return &paperEnv{
		r: r, arts: arts, plan: plan, ref: ref,
		runner: &harness.Runner{Parallel: nproc(), Manifest: r.wrap(store.NewMemory(), traced)},
	}, nil
}

func (e *paperEnv) unit(traced bool) (*unitResult, error) {
	u := &unitResult{}
	var cellS []float64
	e.runner.Observe = func(_, _ int, rep harness.CellReport) {
		u.latencyMS = append(u.latencyMS, ms(rep.Wall))
		if traced {
			end := time.Now()
			e.r.rec.Add(0, "harness.cell", rep.Artifact+"/"+rep.Cell, end.Add(-rep.Wall), end)
			cellS = append(cellS, rep.Wall.Seconds())
			paper.cellByArt[rep.Artifact] += rep.Wall.Seconds()
		}
	}
	start := time.Now()
	rep, err := e.runner.Run(context.Background(), e.plan, e.arts)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if traced {
		e.r.rec.Add(0, "harness.run", "paper", start, end)
		paper.runs = append(paper.runs, harnessRun{end.Sub(start).Seconds(), cellS})
	}
	e.rep = rep
	u.attempted = rep.Executed + rep.CacheHits
	u.failed = rep.Failed
	return u, nil
}

// verify checks that every cell executed, that the cheap artifacts'
// TSVs equal a serial in-process run, and that a unit repeated in a
// later cycle reproduces every TSV.
func (e *paperEnv) verify(bool) error {
	rep := e.rep
	if rep.CacheHits != 0 {
		e.r.fail(fmt.Errorf("paper-quick-cold: %d cells were cache hits in an empty store", rep.CacheHits))
	}
	if len(rep.Results) != len(paperArtifacts) {
		e.r.fail(fmt.Errorf("paper-quick-cold: %d artifacts assembled, want %d", len(rep.Results), len(paperArtifacts)))
	}
	got := make(map[string]string, len(rep.Results))
	for _, res := range rep.Results {
		got[res.Artifact.Name] = sha(res.TSV())
		if want, ok := e.ref[res.Artifact.Name]; ok && string(want) != string(res.TSV()) {
			e.r.fail(fmt.Errorf("paper-quick-cold: %s differs from a serial run at seed %d", res.Artifact.Name, e.plan.Seed))
		}
	}
	if old, ok := paper.digests[e.r.index]; ok {
		for name, d := range old {
			if got[name] != d {
				e.r.fail(fmt.Errorf("paper-quick-cold: %s differs between cycles of one seed", name))
			}
		}
	}
	paper.digests[e.r.index] = got
	return nil
}

func (e *paperEnv) close() error { return nil }

func finishPaper(r *run, e2e, layer metrics) error {
	if r.trace {
		harnessMetrics(layer, paper.runs, float64(nproc()))
		for _, name := range paperArtifacts {
			layer.set("experiments."+name+".cell_s", paper.cellByArt[name], "s", len(paper.runs))
		}
	}
	// Committed digests cover the first unit, run at the run seed.
	return r.verifyDigests("paper-quick-cold", paper.digests[0])
}

// harnessRun is one Runner run as seen from outside: its wall and the
// walls of the cells it executed (cached cells excluded).
type harnessRun struct {
	runS  float64
	cellS []float64
}

// harnessMetrics reports the harness layer. Idle is the slot time no
// cell used, parallel x run - cells, per run. Where cell walls include
// time spent waiting for a dispatch slot they can exceed the slots; the
// run then counts as fully busy rather than below zero.
func harnessMetrics(layer metrics, runs []harnessRun, parallel float64) {
	var runS, cellS []float64
	idle := 0.0
	for _, r := range runs {
		runS = append(runS, r.runS)
		cellS = append(cellS, r.cellS...)
		idle += math.Max(0, parallel*r.runS-sum(r.cellS))
	}
	layer.set("harness.run_s", sum(runS), "s", len(runS))
	layer.set("harness.cell_s_sum", sum(cellS), "s", len(cellS))
	layer.set("harness.cell_s_max", maxOf(cellS), "s", len(cellS))
	layer.set("harness.idle_s", idle, "s", len(runS))
}
