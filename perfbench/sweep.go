package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"coherentleak/internal/dispatch"
	"coherentleak/internal/experiments"
	"coherentleak/internal/service"
	"coherentleak/internal/store"
)

// sweep-fleet-disk: an in-process daemon over a store.Disk in a fresh
// directory, with one in-process dispatch.Worker (Slots = nproc)
// attached over loopback. One client submits the pinned capacity sweep
// and follows its event stream to the frontier, then resubmits it; every
// resubmitted point must come from the store.

type sweepEnv struct {
	r      *run
	d      *daemon
	dir    string
	c      *client
	wt     *timingTransport // the worker's transport
	stop   context.CancelFunc
	worker chan error // the worker's Run result

	coldJobs map[string]bool // the cold sweep's point job IDs
	frontier [2][]byte       // cold and warm frontier TSVs
	warmS    float64

	mu     sync.Mutex
	execMS []float64 // worker-reported cell walls
}

// sweepState is what sweep-fleet-disk keeps across units.
type sweepState struct {
	frontier                  map[int]string // frontier digest by unit index
	warmS, execS              []float64
	runs                      []harnessRun
	leaseMS, resultMS         []float64
	overheadMS                []float64
	coldPointS                []float64 // execution of each first-pass point job
	points, cached, backoffs  int
	reclaims, fallbacks, dups int
	requests, rejected        int
}

var sw = &sweepState{frontier: map[int]string{}}

func setupSweep(r *run, traced bool) (env, error) {
	reg := experiments.Artifacts()
	dir, err := os.MkdirTemp(r.dir, "store-")
	if err != nil {
		return nil, err
	}
	disk, err := store.NewDisk(dir, 0)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	d, err := startDaemon(service.Options{
		Registry:     reg,
		Store:        r.wrap(disk, traced),
		Executors:    1,
		CellParallel: nproc(),
		DefaultSeed:  experiments.DefaultSeed,
	})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	rec := r.recFor(traced)
	e := &sweepEnv{r: r, d: d, dir: dir, c: newClient(d.url, "", rec), worker: make(chan error, 1)}
	e.wt = &timingTransport{
		next: &http.Transport{MaxIdleConnsPerHost: 2 * nproc()},
		rec:  rec,
		spans: map[string]string{
			"POST /v1/workers/*/lease":  "dispatch.lease",
			"POST /v1/workers/*/result": "dispatch.result",
		},
		onBody: e.onWorkerBody,
	}
	w, err := dispatch.NewWorker(dispatch.WorkerOptions{
		Server: d.url, Name: "perfbench", Registry: reg, Slots: nproc(),
		HTTPClient: &http.Client{Transport: e.wt},
	})
	if err != nil {
		return nil, errors.Join(err, e.closeDaemon())
	}
	ctx, stop := context.WithCancel(context.Background())
	e.stop = stop
	go func() { e.worker <- w.Run(ctx) }()
	// Set-up ends when the fleet counts the worker as live.
	deadline := time.Now().Add(10 * time.Second)
	for d.svc.Fleet().Stats().LiveWorkers < 1 {
		if time.Now().After(deadline) {
			return nil, errors.Join(errors.New("worker did not register within 10s"), e.close())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return e, nil
}

// onWorkerBody sees each request the worker sends; a result body
// carries the worker-side wall time of the cell it reports.
func (e *sweepEnv) onWorkerBody(path string, body []byte) {
	var res dispatch.Result
	if len(body) == 0 || json.Unmarshal(body, &res) != nil || res.LeaseID == "" {
		return
	}
	now := time.Now()
	wall := time.Duration(res.WallMillis * float64(time.Millisecond))
	// The worker ran the cell body: a harness cell, executed remotely.
	e.r.rec.Add(0, "harness.cell", res.LeaseID, now.Add(-wall), now)
	e.mu.Lock()
	e.execMS = append(e.execMS, res.WallMillis)
	e.mu.Unlock()
}

// sweepOutcome is one sweep as its event stream reported it.
type sweepOutcome struct {
	id                  string
	state               service.State
	err                 string
	points              []service.SweepPointView
	backoffs            int
	submitted, terminal time.Time
}

// sweep submits the spec and follows its events to the terminal state.
func (e *sweepEnv) sweep() (*sweepOutcome, error) {
	out := &sweepOutcome{submitted: time.Now()}
	var v service.SweepView
	if err := e.c.postJSON("/v1/sweeps", []byte(sweepSpec(e.r.seed, e.r.index)), &v); err != nil {
		return nil, err
	}
	out.id = v.ID
	err := e.c.follow("/v1/sweeps/"+v.ID+"/events", func(typ string, data []byte) (bool, error) {
		var ev service.SweepEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return false, err
		}
		switch {
		case ev.Type == "point" && ev.Point != nil:
			out.points = append(out.points, *ev.Point)
		case ev.Type == "backoff":
			out.backoffs++
		case ev.Type == "state" && ev.State.Terminal():
			out.terminal = time.Now()
			out.state, out.err = ev.State, ev.Error
			return true, nil
		}
		return false, nil
	})
	return out, err
}

func (e *sweepEnv) unit(traced bool) (*unitResult, error) {
	u := &unitResult{}
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		o, err := e.sweep()
		if err != nil {
			return nil, err
		}
		if pass == 1 {
			e.warmS = time.Since(start).Seconds()
		}
		tsv, err := e.c.get("/v1/sweeps/" + o.id + "/frontier.tsv")
		if err != nil {
			return nil, err
		}
		e.frontier[pass] = tsv
		if pass == 0 {
			e.coldJobs = map[string]bool{}
			for _, p := range o.points {
				e.coldJobs[p.JobID] = true
			}
		}
		u.attempted += sweepPoints
		if o.state != service.StateDone || len(o.points) != sweepPoints {
			u.failed += sweepPoints - len(o.points)
			e.r.checks = append(e.r.checks, fmt.Errorf("sweep %s ended %s after %d of %d points: %s", o.id, o.state, len(o.points), sweepPoints, o.err))
		}
		for _, p := range o.points {
			c := p.Cells
			switch {
			case p.Error != "" || c.Failed != 0 || c.Total == 0:
				u.failed++
				e.r.checks = append(e.r.checks, fmt.Errorf("sweep %s point %d failed: %s", o.id, p.Index, p.Error))
			case pass == 0 && c.Executed != c.Total:
				u.failed++
				e.r.checks = append(e.r.checks, fmt.Errorf("sweep %s point %d: %d of %d cells executed in a fresh store", o.id, p.Index, c.Executed, c.Total))
			case pass == 1 && c.Cached != c.Total:
				u.failed++
				e.r.checks = append(e.r.checks, fmt.Errorf("resubmitted sweep %s point %d: %d of %d cells cached", o.id, p.Index, c.Cached, c.Total))
			}
			if traced && pass == 1 && c.Cached == c.Total {
				sw.cached++
			}
		}
		if traced {
			sw.points += len(o.points)
			sw.backoffs += o.backoffs
			e.r.rec.Add(0, "client.sweep", o.id, o.submitted, o.terminal)
		}
	}
	return u, nil
}

// verify checks the frontier and gathers the cold sweep's point
// latencies (job created to finished, from the daemon's job views), and
// for traced units the spans and counters, outside the timed window.
func (e *sweepEnv) verify(traced bool) error {
	if string(e.frontier[0]) != string(e.frontier[1]) {
		e.r.fail(fmt.Errorf("resubmitted sweep's frontier differs from the first"))
	}
	d := sha(e.frontier[0])
	if old, ok := sw.frontier[e.r.index]; ok && old != d {
		e.r.fail(fmt.Errorf("sweep frontier differs between cycles of one seed"))
	}
	sw.frontier[e.r.index] = d
	b, err := e.c.get("/v1/jobs")
	if err != nil {
		return err
	}
	jobs, err := jobList(b)
	if err != nil {
		return err
	}
	rec := e.r.rec
	run := harnessRun{}
	for _, j := range jobs {
		if j.Started == nil || j.Finished == nil {
			continue
		}
		if e.coldJobs[j.ID] && !traced {
			e.r.latencyMS = append(e.r.latencyMS, ms(j.Finished.Sub(j.Created)))
		}
		if traced {
			if e.coldJobs[j.ID] {
				sw.coldPointS = append(sw.coldPointS, j.Finished.Sub(*j.Started).Seconds())
			}
			pt := rec.Add(0, "sweep.point", j.ID, j.Created, *j.Finished)
			rec.Add(pt, "service.queue", j.ID, j.Created, *j.Started)
			rec.Add(pt, "service.exec", j.ID, *j.Started, *j.Finished)
			run.runS += j.Finished.Sub(*j.Started).Seconds()
		}
	}
	if !traced {
		sw.warmS = append(sw.warmS, e.warmS)
		return nil
	}
	m, err := e.c.metricsText()
	if err != nil {
		return err
	}
	e.mu.Lock()
	execMS := append([]float64(nil), e.execMS...)
	e.mu.Unlock()
	for _, x := range execMS {
		run.cellS = append(run.cellS, x/1000)
	}
	// Point jobs run one at a time, so the unit's cells share one run.
	sw.runs = append(sw.runs, run)
	sw.execS = append(sw.execS, run.cellS...)
	if n := series(m, "cohsimd_dispatch_seconds_count"); n > 0 && len(execMS) > 0 {
		sw.overheadMS = append(sw.overheadMS, 1000*series(m, "cohsimd_dispatch_seconds_sum")/n-sum(execMS)/float64(len(execMS)))
	}
	sw.leaseMS = append(sw.leaseMS, e.wt.samples("POST /v1/workers/*/lease")...)
	sw.resultMS = append(sw.resultMS, e.wt.samples("POST /v1/workers/*/result")...)
	sw.reclaims += int(series(m, "cohsimd_lease_reclaims_total"))
	sw.fallbacks += int(series(m, "cohsimd_dispatch_local_fallback_total"))
	sw.dups += int(series(m, "cohsimd_duplicate_results_total"))
	sw.requests += e.c.rt.requests()
	sw.rejected += int(series(m, "cohsimd_jobs_rejected_total"))
	return nil
}

// closeDaemon stops the daemon and removes the store directory.
func (e *sweepEnv) closeDaemon() error {
	e.c.closeIdle()
	return errors.Join(e.d.close(), os.RemoveAll(e.dir))
}

// close stops the worker (it deregisters on the way out), then the
// daemon.
func (e *sweepEnv) close() error {
	e.stop()
	err := <-e.worker
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	e.wt.next.CloseIdleConnections()
	return errors.Join(err, e.closeDaemon())
}

func enoughSweep(r *run) bool { return len(r.latencyMS) >= 5*minBeyond }

func finishSweep(r *run, e2e, layer metrics) error {
	e2e.seconds("sweep.warm_s", sw.warmS)
	if r.trace {
		// Cells are timed by the worker that ran them: bare execution,
		// without lease and transfer.
		harnessMetrics(layer, sw.runs, float64(nproc()))
		layer.set("dispatch.lease_ms.p50", median(sw.leaseMS), "ms", len(sw.leaseMS))
		layer.set("dispatch.result_ms.p50", median(sw.resultMS), "ms", len(sw.resultMS))
		layer.set("dispatch.exec_s_sum", sum(sw.execS), "s", len(sw.execS))
		layer.set("dispatch.overhead_ms.mean", median(sw.overheadMS), "ms", len(sw.overheadMS))
		layer.count("dispatch.reclaims", sw.reclaims)
		layer.count("dispatch.local_fallbacks", sw.fallbacks)
		layer.count("dispatch.duplicates", sw.dups)
		layer.set("sweep.point_s.mean", mean(sw.coldPointS), "s", len(sw.coldPointS))
		layer.count("sweep.points", sw.points)
		layer.count("sweep.points_cached", sw.cached)
		layer.count("sweep.backoffs", sw.backoffs)
		layer.count("service.requests", sw.requests)
		layer.count("service.rejected", sw.rejected)
	}
	// Committed digests cover the first unit, whose seeds start at the
	// run seed.
	return r.verifyDigests("sweep-fleet-disk", map[string]string{"frontier": sw.frontier[0]})
}
