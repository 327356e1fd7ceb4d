package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// DefaultInFlight is how many points run concurrently when the caller
// does not say; the per-point jobs already parallelize their cells, so
// a handful keeps the fleet saturated without flooding the admission
// queue.
const DefaultInFlight = 4

// DefaultMaxRetries bounds admission-control backoff attempts per
// point before the point is declared failed.
const DefaultMaxRetries = 16

// RetryError tells the engine the point was not run and should be
// resubmitted after a delay — the service adapter returns it on queue-
// full (HTTP 429) admission rejections, carrying the computed
// Retry-After. The engine backs off instead of failing the point.
type RetryError struct {
	// After is how long to wait before resubmitting.
	After time.Duration
	// Err is the underlying admission failure.
	Err error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("retry after %s: %v", e.After, e.Err)
}

func (e *RetryError) Unwrap() error { return e.Err }

// CellCounts aggregates cell outcomes of one point's job (and, summed,
// of the whole sweep — how much the cell cache deduped).
type CellCounts struct {
	Total    int `json:"total"`
	Executed int `json:"executed"`
	Cached   int `json:"cached"`
	Failed   int `json:"failed"`
}

// Add accumulates another job's counts.
func (c *CellCounts) Add(o CellCounts) {
	c.Total += o.Total
	c.Executed += o.Executed
	c.Cached += o.Cached
	c.Failed += o.Failed
}

// PointResult is what Options.RunPoint returns for one completed point.
type PointResult struct {
	// JobID names the job that ran the point (informational).
	JobID string
	// TSV maps artifact name to its assembled table (header + rows),
	// byte-identical to the CLI and job-download outputs.
	TSV map[string][]byte
	// Cells reports the job's cell outcomes.
	Cells CellCounts
}

// Event types emitted through Options.Observe.
const (
	// EventPoint: one point reached a terminal outcome (scored or failed).
	EventPoint = "point"
	// EventBackoff: a point hit admission control and is waiting.
	EventBackoff = "backoff"
	// EventFrontier: the ranked top-K changed.
	EventFrontier = "frontier"
)

// PointReport describes one point outcome (or backoff).
type PointReport struct {
	Point  Point
	JobID  string
	Score  float64
	Scored bool
	Err    error
	// Retries counts admission backoffs the point absorbed.
	Retries int
	// RetryAfter is the wait a backoff event announces.
	RetryAfter time.Duration
	Cells      CellCounts
}

// Event is one engine progress notification. Observe calls are
// serialized under the engine's lock.
type Event struct {
	Type        string
	Done, Total int
	Point       *PointReport
	// Frontier is the ranked snapshot on EventFrontier.
	Frontier []Entry
}

// Options configures a sweep run.
type Options struct {
	// RunPoint executes one point to completion. Required, and called
	// concurrently. Returning *RetryError means the point was never
	// admitted and the engine should back off and resubmit; any other
	// error fails the point.
	RunPoint func(ctx context.Context, pt Point) (PointResult, error)
	// DefaultSeed seeds points when the spec has no Seed and no seed
	// axis (mirrors job submission).
	DefaultSeed uint64
	// InFlight bounds concurrent points; <=0 means DefaultInFlight.
	InFlight int
	// MaxRetries bounds admission backoffs per point; <=0 means
	// DefaultMaxRetries.
	MaxRetries int
	// Observe receives progress events; nil discards. Serialized.
	Observe func(Event)
	// sleep is the backoff timer; tests replace it. Nil means a real
	// context-aware timer.
	sleep func(ctx context.Context, d time.Duration) error
}

// WithSleep returns a copy of o with the backoff timer replaced — a
// test seam, so backoff tests assert computed waits without sleeping.
func (o Options) WithSleep(f func(ctx context.Context, d time.Duration) error) Options {
	o.sleep = f
	return o
}

// Report summarizes one sweep run.
type Report struct {
	// Spec echoes the expanded spec.
	Spec Spec
	// Points are per-point outcomes in expansion order.
	Points []PointReport
	// Frontier is the final ranked frontier.
	Frontier *Frontier
	// Completed counts scored points, Failed the rest, Retries the
	// total admission backoffs absorbed.
	Completed, Failed, Retries int
	// Cells sums cell outcomes across every point's job: the cached
	// share is how much the cell store deduped the fan-out.
	Cells CellCounts
	Wall  time.Duration
}

// FrontierTSV renders the final frontier table.
func (r *Report) FrontierTSV() []byte { return r.Frontier.TSV(r.Spec.AxisNames()) }

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Run expands the spec and drives every point through the runner with
// a bounded number in flight, scoring completions and maintaining the
// ranked frontier. Per-point failures do not abort the sweep; engine-
// level problems (invalid spec, cancellation) do. The returned report
// is valid even when err is non-nil (partial results).
func Run(ctx context.Context, spec Spec, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.RunPoint == nil {
		return nil, errors.New("sweep: Options.RunPoint is required")
	}
	start := time.Now()
	points, err := Expand(spec, opts.DefaultSeed)
	if err != nil {
		return nil, err
	}
	obj, err := BuildObjective(spec.Objective)
	if err != nil {
		return nil, err
	}
	inFlight := opts.InFlight
	if inFlight <= 0 {
		inFlight = DefaultInFlight
	}
	if inFlight > len(points) {
		inFlight = len(points)
	}
	maxRetries := opts.MaxRetries
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}
	sleep := opts.sleep
	if sleep == nil {
		sleep = sleepCtx
	}

	rep := &Report{
		Spec:     spec,
		Points:   make([]PointReport, len(points)),
		Frontier: NewFrontier(spec.Objective.Maximize(), spec.TopK),
	}
	var (
		mu   sync.Mutex // guards rep, frontier and Observe serialization
		done int
	)
	observe := func(ev Event) {
		if opts.Observe != nil {
			opts.Observe(ev)
		}
	}
	total := len(points)

	ptCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < inFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ptCh {
				pr := runPoint(ctx, points[i], opts.RunPoint, obj, maxRetries, sleep, func(wait time.Duration, retries int) {
					mu.Lock()
					rep.Retries++
					observe(Event{Type: EventBackoff, Done: done, Total: total, Point: &PointReport{
						Point: points[i], RetryAfter: wait, Retries: retries,
					}})
					mu.Unlock()
				})
				mu.Lock()
				rep.Points[i] = pr
				rep.Cells.Add(pr.Cells)
				done++
				if pr.Scored {
					rep.Completed++
				} else {
					rep.Failed++
				}
				observe(Event{Type: EventPoint, Done: done, Total: total, Point: &pr})
				if pr.Scored {
					if rep.Frontier.Add(Entry{Point: pr.Point, Score: pr.Score, JobID: pr.JobID}) {
						observe(Event{Type: EventFrontier, Done: done, Total: total, Frontier: rep.Frontier.Entries()})
					}
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range points {
		select {
		case ptCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(ptCh)
	wg.Wait()
	rep.Wall = time.Since(start)

	if err := ctx.Err(); err != nil {
		// Mark points the feeder never handed out.
		for i := range rep.Points {
			if rep.Points[i].Point.Params == nil {
				rep.Points[i] = PointReport{Point: points[i], Err: fmt.Errorf("sweep: point %d not run: %w", i, err)}
				rep.Failed++
			}
		}
		return rep, fmt.Errorf("sweep: cancelled after %d/%d point(s): %w", rep.Completed, total, err)
	}
	return rep, nil
}

// runPoint drives one point through admission backoff, execution and
// scoring.
func runPoint(ctx context.Context, pt Point, run func(context.Context, Point) (PointResult, error), obj Objective, maxRetries int, sleep func(context.Context, time.Duration) error, onBackoff func(time.Duration, int)) PointReport {
	pr := PointReport{Point: pt}
	var res PointResult
	for {
		var err error
		res, err = run(ctx, pt)
		if err == nil {
			break
		}
		var re *RetryError
		if !errors.As(err, &re) {
			pr.Err = err
			return pr
		}
		pr.Retries++
		if pr.Retries > maxRetries {
			pr.Err = fmt.Errorf("sweep: point %d rejected %d times by admission control: %w", pt.Index, pr.Retries, re.Err)
			return pr
		}
		onBackoff(re.After, pr.Retries)
		if serr := sleep(ctx, re.After); serr != nil {
			pr.Err = serr
			return pr
		}
	}
	pr.JobID = res.JobID
	pr.Cells = res.Cells
	score, err := obj.Score(res)
	if err != nil {
		pr.Err = fmt.Errorf("sweep: point %d: %w", pt.Index, err)
		return pr
	}
	pr.Score = score
	pr.Scored = true
	return pr
}
