package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"coherentleak/internal/store"
)

// Sink receives each artifact once its cells are assembled, in artifact
// order. Implementations write TSV files, archive replay JSON, collect
// results in memory for tests, and so on.
type Sink interface {
	WriteArtifact(res *ArtifactResult) error
}

// CellTask identifies one dispatchable cell: everything a remote
// executor needs to re-derive the cell from a registry (plan, artifact
// and cell names) plus the in-process body for dispatchers that execute
// locally. The cell cache is consulted before a task is ever built, so
// a cached cell is never dispatched anywhere.
type CellTask struct {
	Plan         Plan
	ConfigDigest string
	Artifact     string
	Cell         string
	// Index is the cell's position in its artifact's deterministic order.
	Index int
	// Run executes the cell in-process (panic-safe). Remote dispatchers
	// ignore it and re-plan the cell from the registry instead.
	Run func() (CellOutput, error)
}

// Dispatcher executes cells somewhere — in-process, or farmed out to a
// worker fleet. Dispatch blocks until the cell finishes (or ctx ends)
// and returns the output plus the identity of the executor ("" means
// in-process). Implementations must be safe for concurrent calls: the
// Runner keeps many dispatches in flight.
type Dispatcher interface {
	Dispatch(ctx context.Context, t CellTask) (CellOutput, string, error)
}

// Runner executes artifact cells on a bounded worker pool.
type Runner struct {
	// Parallel bounds the cells in flight; <=0 means GOMAXPROCS when
	// executing locally. When a Dispatcher is set, <=0 means "all cells
	// at once": the dispatcher's own lease queue is the real bound, and
	// throttling here would only starve remote workers.
	Parallel int
	// Dispatcher, when set, executes cells instead of the local pool.
	// Nil keeps the default in-process execution path.
	Dispatcher Dispatcher
	// Progress receives streaming per-cell completion lines (with
	// timing) and, at assembly, each cell's deterministic summary
	// lines. Nil discards them.
	Progress io.Writer
	// Manifest, when set, caches cell outputs across runs: a cell whose
	// input digest matches a stored entry is not re-executed. Any
	// store.CellStore works here — the in-memory store.Memory, the
	// on-disk replica-shared store.Disk, or a future network backend.
	Manifest store.CellStore
	// Sinks receive every assembled artifact in artifact order.
	Sinks []Sink
	// Observe, when set, receives a structured callback per finished
	// cell (after caching and error wrapping), with the completion
	// counter. Calls are serialized; long-running observers stall
	// progress reporting but not cell execution.
	Observe func(done, total int, rep CellReport)
}

// CellReport records how one cell ran.
type CellReport struct {
	Artifact string
	Cell     string
	// Index is the cell's position in its artifact's deterministic order.
	Index  int
	Cached bool
	// Worker names the remote executor that ran the cell; empty for
	// in-process execution and cache hits.
	Worker string
	Wall   time.Duration
	Rows   int
	Err    error
}

// ArtifactResult is one artifact's assembled output.
type ArtifactResult struct {
	Artifact     *Artifact
	Plan         Plan
	ConfigDigest string
	// Rows are the artifact's TSV rows in deterministic cell order,
	// byte-identical regardless of worker count.
	Rows []string
	// Summary is the concatenation of cell summary lines in cell order.
	Summary []string
	Cells   []CellReport
	// Failed counts cells that returned an error; their rows are absent.
	Failed int
}

// TSV renders the assembled table, header included.
func (a *ArtifactResult) TSV() []byte {
	var b strings.Builder
	b.WriteString(a.Artifact.Header)
	b.WriteByte('\n')
	for _, r := range a.Rows {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// RunReport summarizes one Runner.Run invocation.
type RunReport struct {
	Results []*ArtifactResult
	// Executed counts cells that actually ran (including failures);
	// CacheHits counts cells satisfied from the manifest.
	Executed  int
	CacheHits int
	Failed    int
	Wall      time.Duration
}

// Err aggregates per-cell failures, nil when every cell succeeded.
func (r *RunReport) Err() error {
	if r.Failed == 0 {
		return nil
	}
	var msgs []string
	for _, res := range r.Results {
		for _, c := range res.Cells {
			if c.Err != nil {
				msgs = append(msgs, c.Err.Error())
			}
		}
	}
	return fmt.Errorf("harness: %d cell(s) failed: %s", r.Failed, strings.Join(msgs, "; "))
}

func (r *Runner) workers(jobs int) int {
	n := r.Parallel
	if n <= 0 {
		if r.Dispatcher != nil {
			n = jobs
		} else {
			n = runtime.GOMAXPROCS(0)
		}
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Run executes every cell of the given artifacts, assembles each
// artifact's rows in deterministic cell order, streams summaries, and
// feeds the sinks. Per-cell failures do not abort the run: remaining
// cells still execute and the failures are aggregated in the report.
// The returned error covers engine-level problems only (cell planning,
// sink writes, cancellation).
//
// Cancelling ctx stops the run between cells: cells already executing
// finish (cell bodies are pure compute and are never interrupted
// mid-flight), undispatched cells are marked failed with the context
// error, sinks are skipped, and Run returns the partial report together
// with a non-nil error wrapping ctx.Err(). Both the CLI's -timeout and
// the daemon's per-job cancellation ride on this.
func (r *Runner) Run(ctx context.Context, plan Plan, arts []*Artifact) (*RunReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	digest := plan.ConfigDigest()

	type job struct{ art, cell int }
	cells := make([][]Cell, len(arts))
	outputs := make([][]CellOutput, len(arts))
	reports := make([][]CellReport, len(arts))
	var jobs []job
	for ai, a := range arts {
		if err := a.validate(); err != nil {
			return nil, err
		}
		cs, err := a.Cells(plan)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: planning cells: %w", a.Name, err)
		}
		if len(cs) == 0 {
			return nil, fmt.Errorf("harness: %s: no cells for sizing %q", a.Name, plan.Sizing)
		}
		names := make(map[string]bool, len(cs))
		for _, c := range cs {
			if c.Name == "" || c.Run == nil {
				return nil, fmt.Errorf("harness: %s: cell without name or body", a.Name)
			}
			if names[c.Name] {
				return nil, fmt.Errorf("harness: %s: duplicate cell %q", a.Name, c.Name)
			}
			names[c.Name] = true
		}
		cells[ai] = cs
		outputs[ai] = make([]CellOutput, len(cs))
		reports[ai] = make([]CellReport, len(cs))
		for ci := range cs {
			jobs = append(jobs, job{ai, ci})
		}
	}

	var (
		mu   sync.Mutex // guards done counter and Progress/Observe interleaving
		done int
	)
	total := len(jobs)
	jobCh := make(chan job)
	var wg sync.WaitGroup
	for w := r.workers(total); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				a, c := arts[j.art], cells[j.art][j.cell]
				rep := &reports[j.art][j.cell]
				if err := ctx.Err(); err != nil {
					// Dispatched before cancellation won the race: mark
					// rather than execute.
					rep.Artifact, rep.Cell, rep.Index = a.Name, c.Name, j.cell
					rep.Err = fmt.Errorf("%s/%s: %w", a.Name, c.Name, err)
				} else {
					r.runCell(ctx, plan, digest, a, c, j.cell, &outputs[j.art][j.cell], rep)
				}
				mu.Lock()
				done++
				r.progressLine(done, total, rep)
				if r.Observe != nil {
					r.Observe(done, total, *rep)
				}
				mu.Unlock()
			}
		}()
	}
dispatch:
	for _, j := range jobs {
		select {
		case jobCh <- j:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobCh)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// Mark every cell the dispatcher never handed out, then assemble
		// the partial report so callers can still see what completed.
		ran := done
		for _, j := range jobs {
			rep := &reports[j.art][j.cell]
			if rep.Artifact != "" {
				continue
			}
			a, c := arts[j.art], cells[j.art][j.cell]
			rep.Artifact, rep.Cell, rep.Index = a.Name, c.Name, j.cell
			rep.Err = fmt.Errorf("%s/%s: %w", a.Name, c.Name, err)
		}
		rep, _ := r.assemble(plan, digest, arts, cells, outputs, reports, nil)
		rep.Wall = time.Since(start)
		return rep, fmt.Errorf("harness: run cancelled after %d/%d cell(s): %w", ran, total, err)
	}

	rep, sinkErr := r.assemble(plan, digest, arts, cells, outputs, reports, r.Sinks)
	rep.Wall = time.Since(start)
	return rep, sinkErr
}

// assemble folds per-cell outputs into artifact results in deterministic
// cell order, streams summaries, and feeds every sink in artifact order.
// A sink failure stops further sink writes and is returned.
func (r *Runner) assemble(plan Plan, digest string, arts []*Artifact, cells [][]Cell, outputs [][]CellOutput, reports [][]CellReport, sinks []Sink) (*RunReport, error) {
	rep := &RunReport{}
	for ai, a := range arts {
		res := &ArtifactResult{Artifact: a, Plan: plan, ConfigDigest: digest}
		for ci := range cells[ai] {
			cr := reports[ai][ci]
			res.Cells = append(res.Cells, cr)
			switch {
			case cr.Err != nil:
				res.Failed++
				rep.Executed++
			case cr.Cached:
				rep.CacheHits++
			default:
				rep.Executed++
			}
			if cr.Err == nil {
				res.Rows = append(res.Rows, outputs[ai][ci].Rows...)
				res.Summary = append(res.Summary, outputs[ai][ci].Summary...)
			}
		}
		rep.Failed += res.Failed
		rep.Results = append(rep.Results, res)
		if r.Progress != nil {
			for _, line := range res.Summary {
				fmt.Fprintln(r.Progress, line)
			}
		}
		for _, s := range sinks {
			if err := s.WriteArtifact(res); err != nil {
				return rep, fmt.Errorf("harness: sink for %s: %w", a.Name, err)
			}
		}
	}
	return rep, nil
}

func (r *Runner) runCell(ctx context.Context, plan Plan, digest string, a *Artifact, c Cell, idx int, out *CellOutput, rep *CellReport) {
	rep.Artifact, rep.Cell, rep.Index = a.Name, c.Name, idx
	key := a.Name + "/" + c.Name
	in := cellDigest(digest, plan.Seed, plan.Sizing, a.Name, c.Name)
	// Cache entries are keyed by the full input digest, not just the
	// cell name, so plan variants (config/seed/sizing sweeps) coexist in
	// the manifest instead of evicting each other — that is what lets a
	// repeated sweep be served almost entirely from cache. The LRU limit
	// (SetLimit) bounds the growth this implies.
	cacheKey := key + "@" + in
	// The cache is consulted before dispatch, not just before local
	// execution: a cached cell never ships to a remote worker.
	if r.Manifest != nil {
		if e, ok := r.Manifest.Lookup(cacheKey, in); ok {
			*out = CellOutput{Rows: e.Rows, Summary: e.Summary}
			rep.Cached = true
			rep.Rows = len(e.Rows)
			return
		}
	}
	begin := time.Now()
	var (
		o   CellOutput
		err error
	)
	if r.Dispatcher != nil {
		o, rep.Worker, err = r.Dispatcher.Dispatch(ctx, CellTask{
			Plan:         plan,
			ConfigDigest: digest,
			Artifact:     a.Name,
			Cell:         c.Name,
			Index:        idx,
			Run:          func() (CellOutput, error) { return runCellSafely(c) },
		})
	} else {
		o, err = runCellSafely(c)
	}
	rep.Wall = time.Since(begin)
	if err != nil {
		rep.Err = fmt.Errorf("%s: %w", key, err)
		return
	}
	*out = o
	rep.Rows = len(o.Rows)
	if r.Manifest != nil {
		r.Manifest.Store(cacheKey, &store.Entry{
			Digest:     in,
			Rows:       o.Rows,
			Summary:    o.Summary,
			WallMillis: float64(rep.Wall) / float64(time.Millisecond),
		})
	}
}

// runCellSafely converts a cell panic (e.g. a noise-attach panic deep in
// an experiment closure) into a per-cell error so one bad cell cannot
// take down the whole run.
func runCellSafely(c Cell) (out CellOutput, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return c.Run()
}

func (r *Runner) progressLine(done, total int, rep *CellReport) {
	if r.Progress == nil {
		return
	}
	key := rep.Artifact + "/" + rep.Cell
	switch {
	case rep.Err != nil:
		fmt.Fprintf(r.Progress, "[%d/%d] %-34s FAILED: %v\n", done, total, key, rep.Err)
	case rep.Cached:
		fmt.Fprintf(r.Progress, "[%d/%d] %-34s cached (%d rows)\n", done, total, key, rep.Rows)
	default:
		fmt.Fprintf(r.Progress, "[%d/%d] %-34s %8s (%d rows)\n",
			done, total, key, rep.Wall.Round(time.Millisecond), rep.Rows)
	}
}

// cellDigest keys a cell's cached output by everything that determines
// it: machine configuration, seed, sizing, artifact and cell identity.
func cellDigest(configDigest string, seed uint64, sizing Sizing, artifact, cell string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%s\x00%s\x00%s", configDigest, seed, sizing, artifact, cell)
	return hex.EncodeToString(h.Sum(nil))
}
