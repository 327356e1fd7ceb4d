package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
	"coherentleak/internal/service"
	"coherentleak/internal/store"
	"coherentleak/internal/tenant"
)

// daemon-hot-cold: an in-process daemon configured like cohsimd's flag
// defaults (one executor, CellParallel = nproc, a memory store of at
// most 50000 entries, no workers) with two equally weighted tenants,
// each driven by one closed-loop client. The hot tenant resubmits one
// job whose cells set-up has already stored; the cold tenant submits a
// cheap job under a fresh seed each time, so its cells execute and
// write to the store while hot jobs read from it.

const (
	hotKey  = "perfbench-hot-key"
	coldKey = "perfbench-cold-key"
)

type daemonEnv struct {
	r         *run
	d         *daemon
	hot, cold *client
	lastHot   string // ID of the unit's last hot job
	coldIDs   []string

	mu    sync.Mutex
	times map[string]jobTimes // client-side times of traced jobs
}

type jobTimes struct {
	submit, accepted, terminal time.Time
	cells                      []cellSpan
}

type cellSpan struct {
	key  string
	recv time.Time
	wall time.Duration
}

// daemonState is what daemon-hot-cold keeps across units.
type daemonState struct {
	hotMS, coldMS       []float64
	queueMS, execMS     map[string][]float64 // by tenant
	notifyMS, submitMS  []float64
	runs                []harnessRun
	requests, rejected  int
	jobs, cells, cached map[string]int    // traced jobs' cell counts by tenant
	ref                 map[string][]byte // in-process reference TSVs by "<seed>/<artifact>"
	digests             map[string]string // hot and first cold job outputs
}

var hc = &daemonState{
	queueMS: map[string][]float64{}, execMS: map[string][]float64{},
	jobs: map[string]int{}, cells: map[string]int{}, cached: map[string]int{},
	ref: map[string][]byte{}, digests: map[string]string{},
}

func setupDaemon(r *run, traced bool) (env, error) {
	reg := experiments.Artifacts()
	tenants, err := tenant.New([]*tenant.Tenant{
		{Name: "hot", Key: hotKey, Weight: 1},
		{Name: "cold", Key: coldKey, Weight: 1},
	})
	if err != nil {
		return nil, err
	}
	mem := store.NewMemory()
	mem.SetLimit(50000)
	d, err := startDaemon(service.Options{
		Registry:     reg,
		Store:        r.wrap(mem, traced),
		Tenants:      tenants,
		Executors:    1,
		CellParallel: nproc(),
		DefaultSeed:  experiments.DefaultSeed,
	})
	if err != nil {
		return nil, err
	}
	rec := r.recFor(traced)
	e := &daemonEnv{r: r, d: d, hot: newClient(d.url, hotKey, rec), cold: newClient(d.url, coldKey, rec), times: map[string]jobTimes{}}
	// Warm-up: the hot job's first run executes and stores its cells.
	v, _, err := e.job(e.hot, hotArtifacts, hotSeed(r.seed))
	if err == nil && (v.state != service.StateDone || v.total == 0 || v.executed != v.total) {
		err = fmt.Errorf("warm-up job %s ended %s with %d of %d cells executed", v.id, v.state, v.executed, v.total)
	}
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// jobResult is a finished job as its event stream reported it.
type jobResult struct {
	id                      string
	state                   service.State
	err                     string
	total, executed, cached int
	failed                  int
}

// job submits one job and follows its event stream to the terminal
// state event, counting cell outcomes on the way. It returns the
// latency from submit to receipt of the terminal event.
func (e *daemonEnv) job(c *client, arts []string, seed uint64) (jobResult, time.Duration, error) {
	var res jobResult
	body, err := json.Marshal(service.SubmitRequest{Artifacts: arts, Seed: &seed, Sizing: sizing})
	if err != nil {
		return res, 0, err
	}
	t := jobTimes{submit: time.Now()}
	var v service.View
	if err := c.postJSON("/v1/jobs", body, &v); err != nil {
		return res, 0, err
	}
	t.accepted = time.Now()
	res.id = v.ID
	err = c.follow("/v1/jobs/"+v.ID+"/events", func(typ string, data []byte) (bool, error) {
		var ev service.Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return false, err
		}
		switch {
		case ev.Type == "cell" && ev.Cell != nil:
			cell := ev.Cell
			res.total = cell.Total
			switch {
			case cell.Error != "":
				res.failed++
			case cell.Cached:
				res.cached++
			default:
				res.executed++
				if c.rt.rec != nil {
					t.cells = append(t.cells, cellSpan{
						key: cell.Artifact + "/" + cell.Cell, recv: time.Now(),
						wall: time.Duration(cell.WallMillis * float64(time.Millisecond)),
					})
				}
			}
		case ev.Type == "state" && ev.State.Terminal():
			t.terminal = time.Now()
			res.state, res.err = ev.State, ev.Error
			return true, nil
		}
		return false, nil
	})
	if err != nil {
		return res, 0, err
	}
	if c.rt.rec != nil {
		e.mu.Lock()
		e.times[v.ID] = t
		e.mu.Unlock()
	}
	return res, t.terminal.Sub(t.submit), nil
}

// loop is one tenant's closed loop: n jobs, each submitted once the
// previous one's terminal event has arrived.
func (e *daemonEnv) loop(c *client, hot bool, n int, u *tenantResult) error {
	for i := 0; i < n; i++ {
		arts, seed := coldArtifacts, coldSeed(e.r.seed, i)
		if hot {
			arts, seed = hotArtifacts, hotSeed(e.r.seed)
		}
		v, lat, err := e.job(c, arts, seed)
		u.attempted++
		switch {
		case errors.Is(err, errRefused):
			u.failed++
			continue
		case err != nil:
			return err
		}
		u.latencyMS = append(u.latencyMS, ms(lat))
		u.ids = append(u.ids, v.id)
		u.cells += v.total
		u.cached += v.cached
		switch {
		case v.state != service.StateDone || v.failed != 0 || v.total == 0:
			u.failed++
			u.errs = append(u.errs, fmt.Errorf("job %s ended %s with %d failed cells: %s", v.id, v.state, v.failed, v.err))
		case hot && v.cached != v.total:
			u.failed++
			u.errs = append(u.errs, fmt.Errorf("hot job %s: %d of %d cells cached", v.id, v.cached, v.total))
		case !hot && v.executed != v.total:
			u.failed++
			u.errs = append(u.errs, fmt.Errorf("cold job %s: %d of %d cells executed", v.id, v.executed, v.total))
		}
	}
	return nil
}

type tenantResult struct {
	attempted, failed int
	cells, cached     int
	latencyMS         []float64
	ids               []string
	errs              []error
}

func (e *daemonEnv) unit(traced bool) (*unitResult, error) {
	var hot, cold tenantResult
	var wg sync.WaitGroup
	var hotErr, coldErr error
	wg.Add(2)
	go func() { defer wg.Done(); hotErr = e.loop(e.hot, true, jobsPerClient, &hot) }()
	go func() { defer wg.Done(); coldErr = e.loop(e.cold, false, jobsPerClient, &cold) }()
	wg.Wait()
	if err := errors.Join(hotErr, coldErr); err != nil {
		return nil, err
	}
	// Each of these already counts in the unit's failed operations.
	e.r.checks = append(e.r.checks, hot.errs...)
	e.r.checks = append(e.r.checks, cold.errs...)
	if len(hot.ids) > 0 {
		e.lastHot = hot.ids[len(hot.ids)-1]
	}
	e.coldIDs = cold.ids
	if !traced {
		hc.hotMS = append(hc.hotMS, hot.latencyMS...)
		hc.coldMS = append(hc.coldMS, cold.latencyMS...)
	} else {
		for name, t := range map[string]*tenantResult{"hot": &hot, "cold": &cold} {
			hc.jobs[name] += len(t.ids)
			hc.cells[name] += t.cells
			hc.cached[name] += t.cached
		}
	}
	// An operation is a job of either tenant; the split by tenant is
	// reported beside it.
	return &unitResult{
		attempted: hot.attempted + cold.attempted,
		failed:    hot.failed + cold.failed,
		latencyMS: append(hot.latencyMS, cold.latencyMS...),
	}, nil
}

// verify checks the unit's outputs: the TSVs of the last hot job and of
// three cold jobs against serial in-process runs, and those of the hot
// and first cold job against earlier units'. Traced units also gather
// spans and the service's own counters here, outside the timed window.
func (e *daemonEnv) verify(traced bool) error {
	if e.lastHot == "" {
		return fmt.Errorf("no hot job completed")
	}
	if err := e.compare(e.hot, e.lastHot, hotArtifacts, hotSeed(e.r.seed), "hot."); err != nil {
		return err
	}
	for _, i := range []int{0, len(e.coldIDs) / 2, len(e.coldIDs) - 1} {
		if i < 0 || i >= len(e.coldIDs) {
			continue
		}
		prefix := ""
		if i == 0 {
			prefix = "cold0."
		}
		if err := e.compare(e.cold, e.coldIDs[i], coldArtifacts, coldSeed(e.r.seed, i), prefix); err != nil {
			return err
		}
	}
	if traced {
		return e.traceUnit()
	}
	return nil
}

// compare downloads a job's TSVs and checks each against an in-process
// harness.Runner result for the same artifacts and seed. With a
// non-empty prefix the digests are kept for the committed-digest check.
func (e *daemonEnv) compare(c *client, id string, arts []string, seed uint64, prefix string) error {
	for _, a := range arts {
		got, err := c.get("/v1/jobs/" + id + "/artifacts/" + a + ".tsv")
		if err != nil {
			return err
		}
		want, err := reference(a, seed)
		if err != nil {
			return err
		}
		if string(got) != string(want) {
			e.r.fail(fmt.Errorf("job %s: %s.tsv differs from the in-process run at seed %d", id, a, seed))
		}
		if prefix != "" {
			d := sha(got)
			if old, ok := hc.digests[prefix+a]; ok && old != d {
				e.r.fail(fmt.Errorf("job %s: %s.tsv differs between units", id, a))
			}
			hc.digests[prefix+a] = d
		}
	}
	return nil
}

// reference runs one artifact serially in-process at quick sizing,
// memoized.
func reference(artifact string, seed uint64) ([]byte, error) {
	key := fmt.Sprintf("%d/%s", seed, artifact)
	if b, ok := hc.ref[key]; ok {
		return b, nil
	}
	arts, err := experiments.Artifacts().Select([]string{artifact})
	if err != nil {
		return nil, err
	}
	plan := harness.Plan{Cfg: machine.DefaultConfig(), Seed: seed, Sizing: sizing}
	rep, err := (&harness.Runner{Parallel: 1}).Run(context.Background(), plan, arts)
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	b := rep.Results[0].TSV()
	hc.ref[key] = b
	return b, nil
}

// traceUnit turns the traced unit's jobs into spans and samples, using
// each job's server-side created/started/finished times.
func (e *daemonEnv) traceUnit() error {
	rec := e.r.rec
	for name, c := range map[string]*client{"hot": e.hot, "cold": e.cold} {
		b, err := c.get("/v1/jobs")
		if err != nil {
			return err
		}
		views, err := jobList(b)
		if err != nil {
			return err
		}
		for _, v := range views {
			t, ok := e.times[v.ID]
			if !ok || v.Started == nil || v.Finished == nil {
				continue
			}
			job := rec.Add(0, "client.job", v.ID, t.submit, t.terminal)
			rec.Add(job, "service.submit", v.ID, t.submit, t.accepted)
			rec.Add(job, "service.queue", v.ID, v.Created, *v.Started)
			exec := rec.Add(job, "service.exec", v.ID, *v.Started, *v.Finished)
			rec.Add(job, "service.notify", v.ID, *v.Finished, t.terminal)
			run := harnessRun{runS: v.Finished.Sub(*v.Started).Seconds()}
			for _, cs := range t.cells {
				rec.Add(exec, "harness.cell", cs.key, cs.recv.Add(-cs.wall), cs.recv)
				run.cellS = append(run.cellS, cs.wall.Seconds())
			}
			hc.runs = append(hc.runs, run)
			hc.queueMS[name] = append(hc.queueMS[name], ms(v.Started.Sub(v.Created)))
			hc.execMS[name] = append(hc.execMS[name], ms(v.Finished.Sub(*v.Started)))
			hc.notifyMS = append(hc.notifyMS, ms(t.terminal.Sub(*v.Finished)))
		}
		hc.submitMS = append(hc.submitMS, c.rt.samples("POST /v1/jobs")...)
		hc.requests += c.rt.requests()
	}
	m, err := e.hot.metricsText()
	if err != nil {
		return err
	}
	hc.rejected += int(series(m, "cohsimd_jobs_rejected_total"))
	return nil
}

func (e *daemonEnv) close() error {
	e.hot.closeIdle()
	e.cold.closeIdle()
	return e.d.close()
}

// enoughDaemon asks for a p99 with minBeyond samples beyond it for
// each tenant.
func enoughDaemon(r *run) bool {
	return len(hc.hotMS) >= minLatencySamples && len(hc.coldMS) >= minLatencySamples
}

func finishDaemon(r *run, e2e, layer metrics) error {
	for name, xs := range map[string][]float64{"hot": hc.hotMS, "cold": hc.coldMS} {
		e2e.set(name+"_p50_ms", median(xs), "ms", len(xs))
		if v, p, err := tail(xs); err == nil {
			e2e.set(name+"_tail_ms", v, "ms", len(xs))
			fmt.Printf("%s_tail_ms is p%.0f over %d jobs\n", name, p, len(xs))
		} else if !r.trace {
			return err
		}
	}
	if r.trace {
		harnessMetrics(layer, hc.runs, float64(nproc()))
		layer.set("service.submit_ms.p50", median(hc.submitMS), "ms", len(hc.submitMS))
		layer.set("service.notify_ms.p50", median(hc.notifyMS), "ms", len(hc.notifyMS))
		for _, name := range []string{"hot", "cold"} {
			q := hc.queueMS[name]
			layer.set("tenant.queue_wait_ms.p50."+name, median(q), "ms", len(q))
			if v, _, err := tail(q); err == nil {
				layer.set("tenant.queue_wait_ms.tail."+name, v, "ms", len(q))
			}
			layer.set("service.exec_ms.p50."+name, median(hc.execMS[name]), "ms", len(hc.execMS[name]))
			// What each tenant's traffic is made of: cells per job and
			// the share of them the store served.
			if n := hc.jobs[name]; n > 0 && hc.cells[name] > 0 {
				layer.set("tenant.cells_per_job."+name, float64(hc.cells[name])/float64(n), "count", n)
				layer.set("store.cached_share."+name, float64(hc.cached[name])/float64(hc.cells[name]), "1", hc.cells[name])
			}
		}
		layer.count("service.requests", hc.requests)
		layer.count("service.rejected", hc.rejected)
	}
	keys := make([]string, 0, len(hc.digests))
	for k := range hc.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("checked outputs: %s\n", strings.Join(keys, " "))
	return r.verifyDigests("daemon-hot-cold", hc.digests)
}
