package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
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
// and cell names). The cell cache is consulted before a task is ever
// built, so a cached cell is never dispatched anywhere.
type CellTask struct {
	Plan         Plan
	ConfigDigest string
	Artifact     string
	Cell         string
	// Index is the cell's position in its artifact's deterministic order.
	Index int
}

// ErrNotDispatched is what a Dispatcher returns (bare or wrapped) for a
// cell it could not hand to any executor; the Runner then executes the
// cell in-process under its Parallel bound.
var ErrNotDispatched = errors.New("harness: cell not dispatched")

// Dispatcher farms cells out to executors elsewhere, such as a worker
// fleet. Dispatch blocks until the cell finishes (or ctx ends) and
// returns the output plus the identity of the executor, or
// ErrNotDispatched to leave the cell to the Runner. Implementations
// must be safe for concurrent calls: the Runner dispatches every cell
// at once.
type Dispatcher interface {
	Dispatch(ctx context.Context, t CellTask) (CellOutput, string, error)
}

// Runner executes artifact cells in-process on a bounded pool of slots,
// or through a Dispatcher.
type Runner struct {
	// Parallel bounds the cells executing in-process; <=0 means
	// GOMAXPROCS. Cells a Dispatcher accepts do not count against it.
	Parallel int
	// Dispatcher, when set, is offered every uncached cell first; the
	// cells it answers ErrNotDispatched for run in-process. Nil runs
	// every cell in-process.
	Dispatcher Dispatcher
	// Progress receives streaming per-cell completion lines (with
	// timing) and, at assembly, each cell's deterministic summary
	// lines. Nil discards them.
	Progress io.Writer
	// Manifest, when set, caches cell outputs across runs: a cell whose
	// input digest matches a stored entry is not re-executed. Any
	// store.CellStore works here — the in-memory store.Memory, the
	// persistent, replica-shared store.Disk, or a future network
	// backend.
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
	// CellRows holds each cell's TSV rows, parallel to Cells: the slice
	// the cell produced or the cell store returned, shared rather than
	// copied, so it must not be modified. A failed cell's entry is nil.
	// In order they are the artifact's table, byte-identical regardless
	// of worker count.
	CellRows [][]string
	// Summary is the concatenation of cell summary lines in cell order.
	Summary []string
	Cells   []CellReport
	// Failed counts cells that returned an error; their rows are absent.
	Failed int
}

// NumRows counts the table's rows, header excluded.
func (a *ArtifactResult) NumRows() int {
	n := 0
	for _, rows := range a.CellRows {
		n += len(rows)
	}
	return n
}

// Rows returns the table's rows in cell order as one new slice, nil
// when there are none.
func (a *ArtifactResult) Rows() []string {
	n := a.NumRows()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, rows := range a.CellRows {
		out = append(out, rows...)
	}
	return out
}

// TSV renders the assembled table, header included.
func (a *ArtifactResult) TSV() []byte {
	n := len(a.Artifact.Header) + 1
	for _, rows := range a.CellRows {
		for _, r := range rows {
			n += len(r) + 1
		}
	}
	b := make([]byte, 0, n)
	b = append(b, a.Artifact.Header...)
	b = append(b, '\n')
	for _, rows := range a.CellRows {
		for _, r := range rows {
			b = append(b, r...)
			b = append(b, '\n')
		}
	}
	return b
}

// RunReport summarizes one Runner.Run invocation.
type RunReport struct {
	Results []*ArtifactResult
	// Executed counts cells that actually ran (including failures);
	// CacheHits counts cells satisfied from the cell store.
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

// parallel is the in-process execution bound for a run of jobs cells.
func (r *Runner) parallel(jobs int) int {
	n := r.Parallel
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Batch is a run resolved against the cell store: every cell of the
// plan's artifacts, with the entries of the cells the store held at
// Prepare. Runner.Execute runs it.
type Batch struct {
	plan   Plan
	digest string
	arts   []*Artifact
	cells  [][]Cell
	// keys holds each cell's store key and input digest (cacheKey).
	keys [][]cellKey
	// hits holds each cell's stored entry; nil marks a cell to execute.
	hits    [][]*store.Entry
	pending int
}

// cellKey is a cell's store key and the input digest it ends in.
type cellKey struct{ key, in string }

// Pending counts the cells the store did not hold at Prepare.
func (b *Batch) Pending() int { return b.pending }

// ConfigDigest is the plan's Plan.ConfigDigest, computed once at Prepare.
func (b *Batch) ConfigDigest() string { return b.digest }

// Prepare plans every cell of the given artifacts and looks each one up
// in the Manifest once, holding the entries it finds. The error covers
// invalid artifacts and cell plans only.
func (r *Runner) Prepare(plan Plan, arts []*Artifact) (*Batch, error) {
	b := &Batch{
		plan:   plan,
		digest: plan.ConfigDigest(),
		arts:   arts,
		cells:  make([][]Cell, len(arts)),
		keys:   make([][]cellKey, len(arts)),
		hits:   make([][]*store.Entry, len(arts)),
	}
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
		b.cells[ai] = cs
		b.keys[ai] = make([]cellKey, len(cs))
		b.hits[ai] = make([]*store.Entry, len(cs))
		for ci, c := range cs {
			k := cacheKey(b, a, c)
			b.keys[ai][ci] = k
			if b.hits[ai][ci] = r.lookup(k); b.hits[ai][ci] == nil {
				b.pending++
			}
		}
	}
	return b, nil
}

// Run is Prepare followed by Execute: it executes every cell of the
// given artifacts the store does not hold. The returned error covers
// engine-level problems only (cell planning, sink writes, cancellation).
func (r *Runner) Run(ctx context.Context, plan Plan, arts []*Artifact) (*RunReport, error) {
	start := time.Now()
	b, err := r.Prepare(plan, arts)
	if err != nil {
		return nil, err
	}
	rep, err := r.Execute(ctx, b)
	rep.Wall = time.Since(start)
	return rep, err
}

// Execute reports the cells Prepare found stored, runs the rest,
// assembles each artifact's rows in deterministic cell order, streams
// summaries, and feeds the sinks. A cell that missed at Prepare is
// looked up once more before it runs, since another run may have stored
// it since. Per-cell failures do not abort the run: remaining cells
// still execute and the failures are aggregated in the report. The
// returned error covers sink writes and cancellation only.
//
// Cancelling ctx stops the run between cells: cells already executing
// finish (cell bodies are pure compute and are never interrupted
// mid-flight), undispatched cells are marked failed with the context
// error, sinks are skipped, and Execute returns the partial report
// together with a non-nil error wrapping ctx.Err(). Both the CLI's
// -timeout and the daemon's per-job cancellation ride on this.
func (r *Runner) Execute(ctx context.Context, b *Batch) (*RunReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	type job struct{ art, cell int }
	outputs := make([][]CellOutput, len(b.arts))
	reports := make([][]CellReport, len(b.arts))
	var jobs []job
	total := 0
	for ai, cs := range b.cells {
		outputs[ai] = make([]CellOutput, len(cs))
		reports[ai] = make([]CellReport, len(cs))
		total += len(cs)
	}

	var (
		mu   sync.Mutex // guards done counter and Progress/Observe interleaving
		done int
	)
	finish := func(rep *CellReport) {
		mu.Lock()
		done++
		r.progressLine(done, total, rep)
		if r.Observe != nil {
			r.Observe(done, total, *rep)
		}
		mu.Unlock()
	}
	for ai, a := range b.arts {
		for ci, c := range b.cells[ai] {
			if e := b.hits[ai][ci]; e != nil {
				rep := &reports[ai][ci]
				rep.Artifact, rep.Cell, rep.Index = a.Name, c.Name, ci
				outputs[ai][ci] = cached(e, rep)
				finish(rep)
			} else {
				jobs = append(jobs, job{ai, ci})
			}
		}
	}

	// Without a Dispatcher one goroutine per slot drains the jobs; with
	// one, every cell is in flight at once and only the cells it hands
	// back wait for a slot.
	slots := make(chan struct{}, r.parallel(len(jobs)))
	fanout := cap(slots)
	if r.Dispatcher != nil {
		fanout = len(jobs)
	}
	jobCh := make(chan job)
	var wg sync.WaitGroup
	for w := fanout; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				a, c := b.arts[j.art], b.cells[j.art][j.cell]
				rep := &reports[j.art][j.cell]
				if err := ctx.Err(); err != nil {
					// Dispatched before cancellation won the race: mark
					// rather than execute.
					rep.Artifact, rep.Cell, rep.Index = a.Name, c.Name, j.cell
					rep.Err = fmt.Errorf("%s/%s: %w", a.Name, c.Name, err)
				} else {
					r.runCell(ctx, b, a, c, b.keys[j.art][j.cell], j.cell, slots, &outputs[j.art][j.cell], rep)
				}
				finish(rep)
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
			a, c := b.arts[j.art], b.cells[j.art][j.cell]
			rep.Artifact, rep.Cell, rep.Index = a.Name, c.Name, j.cell
			rep.Err = fmt.Errorf("%s/%s: %w", a.Name, c.Name, err)
		}
		rep, _ := r.assemble(b, outputs, reports, nil)
		rep.Wall = time.Since(start)
		return rep, fmt.Errorf("harness: run cancelled after %d/%d cell(s): %w", ran, total, err)
	}

	rep, sinkErr := r.assemble(b, outputs, reports, r.Sinks)
	rep.Wall = time.Since(start)
	return rep, sinkErr
}

// assemble folds per-cell outputs into artifact results in deterministic
// cell order, streams summaries, and feeds every sink in artifact order.
// A sink failure stops further sink writes and is returned.
func (r *Runner) assemble(b *Batch, outputs [][]CellOutput, reports [][]CellReport, sinks []Sink) (*RunReport, error) {
	rep := &RunReport{}
	for ai, a := range b.arts {
		res := &ArtifactResult{
			Artifact:     a,
			Plan:         b.plan,
			ConfigDigest: b.digest,
			CellRows:     make([][]string, len(b.cells[ai])),
			Cells:        reports[ai],
		}
		for ci, cr := range reports[ai] {
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
				res.CellRows[ci] = outputs[ai][ci].Rows
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

// cacheKey names a cell's store entry and returns its input digest.
// Entries are keyed by the full input digest, not just the cell name,
// so plan variants (config/seed/sizing sweeps) coexist in the store
// instead of evicting each other — that is what lets a repeated sweep
// be served almost entirely from cache. The stores' bounds
// (Memory.SetLimit, NewDisk's maxBytes) cap the growth this implies.
func cacheKey(b *Batch, a *Artifact, c Cell) cellKey {
	in := cellDigest(b.digest, b.plan.Seed, b.plan.Sizing, a.Name, c.Name)
	return cellKey{a.Name + "/" + c.Name + "@" + in, in}
}

// lookup returns a cell's stored entry, nil on a miss or without a
// Manifest.
func (r *Runner) lookup(k cellKey) *store.Entry {
	if r.Manifest == nil {
		return nil
	}
	if e, ok := r.Manifest.Lookup(k.key, k.in); ok {
		return e
	}
	return nil
}

// cached fills a cache-hit report and returns the stored output.
func cached(e *store.Entry, rep *CellReport) CellOutput {
	rep.Cached = true
	rep.Rows = len(e.Rows)
	return CellOutput{Rows: e.Rows, Summary: e.Summary}
}

func (r *Runner) runCell(ctx context.Context, b *Batch, a *Artifact, c Cell, k cellKey, idx int, slots chan struct{}, out *CellOutput, rep *CellReport) {
	rep.Artifact, rep.Cell, rep.Index = a.Name, c.Name, idx
	// The cache is consulted before dispatch, not just before local
	// execution: a cached cell never ships to a remote worker.
	if e := r.lookup(k); e != nil {
		*out = cached(e, rep)
		return
	}
	begin := time.Now()
	o, err := CellOutput{}, ErrNotDispatched
	if r.Dispatcher != nil {
		o, rep.Worker, err = r.Dispatcher.Dispatch(ctx, CellTask{
			Plan:         b.plan,
			ConfigDigest: b.digest,
			Artifact:     a.Name,
			Cell:         c.Name,
			Index:        idx,
		})
	}
	if errors.Is(err, ErrNotDispatched) {
		// The slot wait counts toward the cell's wall time.
		select {
		case slots <- struct{}{}:
			o, err = RunCell(c)
			<-slots
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	rep.Wall = time.Since(begin)
	if err != nil {
		rep.Err = fmt.Errorf("%s/%s: %w", a.Name, c.Name, err)
		return
	}
	*out = o
	rep.Rows = len(o.Rows)
	if r.Manifest != nil {
		r.Manifest.Store(k.key, &store.Entry{
			Digest:     k.in,
			Rows:       o.Rows,
			Summary:    o.Summary,
			WallMillis: float64(rep.Wall) / float64(time.Millisecond),
		})
	}
}

// RunCell runs one cell, converting a panic (e.g. a noise-attach panic
// deep in an experiment closure) into an error so one bad cell cannot
// take down a whole run or a worker process.
func RunCell(c Cell) (out CellOutput, err error) {
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
