// Command perfbench is the repository benchmark. It runs one named
// workload against the program's public entry points for a given seed
// and duration, checks every output, and prints each metric by name
// with its unit and sample count. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload paper-quick-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every call into a layer, runs the simulator
// probes, and reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// benchVersion changes whenever the benchmark's work, metrics or checks
// change, so results from different versions are never compared.
const benchVersion = "1"

// metric is one reported number.
type metric struct {
	Value float64
	Unit  string
	N     int // samples behind the value
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

func (m metrics) count(name string, n int) { m.set(name, float64(n), "count", 1) }

// seconds reports a set of durations in seconds by their median.
func (m metrics) seconds(name string, xs []float64) { m.set(name, median(xs), "s", len(xs)) }

// mean of xs; wall and CPU average over a cycle's units because their
// inputs, and so their work, differ.
func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// unitResult is what one repetition of a workload's fixed work yields.
type unitResult struct {
	attempted int // operations: cells, jobs or sweep points
	failed    int // operations that failed, were refused or mismatched
	latencyMS []float64
}

// env is one set-up instance of a workload: everything a unit needs,
// built inside the timed set-up and torn down after the unit.
type env interface {
	unit(traced bool) (*unitResult, error)
	// verify checks the unit's outputs, outside the timed window.
	verify(traced bool) error
	close() error
}

// workload names one fixed-work unit and how to set it up.
type workload struct {
	name string
	// setup builds a fresh env; traced envs decorate their layers.
	setup func(r *run, traced bool) (env, error)
	// setupReps is how many times set-up is timed per unit; all but the
	// last env are closed unused.
	setupReps int
	// cycle is the number of units in the workload's fixed work.
	cycle int
	// enough reports whether the run holds enough samples to stop.
	enough func(r *run) bool
	// finish adds workload metrics after the last unit and runs the
	// checks that need every unit's output.
	finish func(r *run, e2e, layer metrics) error
}

// run carries one invocation's inputs and accumulated results.
type run struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory inside the checkout
	rec     *Recorder
	store   *storeStats // traced envs' store traffic

	index     int // the running unit's position in its cycle
	attempted int
	failed    int
	checks    []error // output mismatches; each also counts as failed
	setupS    []float64
	wallS     map[bool][]float64 // by traced
	cpuS      []float64
	latencyMS []float64
}

// recFor returns the recorder a traced env records into, nil otherwise.
func (r *run) recFor(traced bool) *Recorder {
	if traced {
		return r.rec
	}
	return nil
}

// fail records an output check that did not hold.
func (r *run) fail(err error) {
	r.checks = append(r.checks, err)
	r.failed++
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 15, "measure for at least this many seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		out     = flag.String("dir", ".bench_build/perfbench", "scratch directory for stores and span dumps")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	dir, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		dir: dir, wallS: map[bool][]float64{},
	}
	if r.trace {
		r.rec = &Recorder{}
		r.store = &storeStats{}
	}
	res, err := execute(w, r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	emit(res)
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute repeats the workload's unit until the duration has passed and
// the workload has enough samples, then assembles the report.
func execute(w *workload, r *run) (*result, error) {
	record(w.name, r)
	var ru0 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Units run in whole cycles: a cycle is the workload's fixed work,
	// its units covering different inputs from the seed. Cycles repeat
	// until the duration has passed and the workload has enough samples.
	// A traced run follows each untraced unit with a traced one on the
	// same inputs, so the difference of their walls is the tracing
	// overhead.
	start := time.Now()
	for k := 0; k == 0 || k%w.cycle != 0 || time.Since(start) < r.seconds || !w.enough(r); k++ {
		r.index = k % w.cycle
		if err := oneUnit(w, r, false); err != nil {
			return nil, err
		}
		if r.trace {
			if err := oneUnit(w, r, true); err != nil {
				return nil, err
			}
		}
	}

	e2e, layer := metrics{}, metrics{}
	if err := w.finish(r, e2e, layer); err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)

	e2e.seconds("setup_s", r.setupS)
	e2e.set("wall_s", mean(r.wallS[false]), "s", len(r.wallS[false]))
	e2e.set("cpu_s", mean(r.cpuS), "s", len(r.cpuS))
	e2e.set("rss_peak_mb", float64(ru.Maxrss)/1024, "MB", 1)
	e2e.set("op_mean_ms", mean(r.latencyMS), "ms", len(r.latencyMS))
	e2e.set("op_p50_ms", median(r.latencyMS), "ms", len(r.latencyMS))
	if tv, tp, err := tail(r.latencyMS); err == nil {
		e2e.set("op_tail_ms", tv, "ms", len(r.latencyMS))
		fmt.Printf("op_tail_ms is p%.0f over %d operations\n", tp, len(r.latencyMS))
	} else if !r.trace {
		return nil, err
	}

	fmt.Printf("error_ratio %.6f (%d failed or refused of %d attempted)\n", errorRatio(r.failed, r.attempted), r.failed, r.attempted)

	out := e2e
	if r.trace {
		layer.set("process.sys_s", tv2s(ru.Stime)-tv2s(ru0.Stime), "s", 1)
		layer.count("process.gc_cycles", int(mst.NumGC-ms0.NumGC))
		layer.set("process.alloc_mb", float64(mst.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB", 1)
		r.store.report(layer)
		layer.set("trace.overhead_s", mean(r.wallS[true])-mean(r.wallS[false]), "s", len(r.wallS[true])+len(r.wallS[false]))
		spans := r.rec.Spans()
		for _, child := range []string{"harness.cell", "store.lookup", "store.put", "dispatch.lease", "dispatch.result"} {
			adopt(spans, child, "harness.run", "service.exec")
		}
		adopt(spans, "sweep.point", "client.sweep")
		self := selfTimes(spans)
		for _, l := range []string{"harness", "store"} {
			layer.set("self_s."+l, self[l].Seconds(), "s", len(spans))
		}
		for l, d := range self {
			fmt.Printf("self %s %s %.6f s\n", w.name, l, d.Seconds())
		}
		path := filepath.Join(r.dir, fmt.Sprintf("spans-%s-%d.json", w.name, r.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans %d written to %s\n", len(spans), path)
		if err := probes(layer); err != nil {
			return nil, err
		}
		out = layer
	}

	for _, e := range r.checks {
		fmt.Printf("CHECK FAILED: %v\n", e)
	}
	printMetrics(w.name, e2e, layer)
	res := &result{
		Correct:   len(r.checks) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, name := range jsonNames(r.trace) {
		m, ok := out[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
		res.Metrics[name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	return res, nil
}

// errorRatio is (failed + refused) / attempted operations; failed
// already includes the refused ones.
func errorRatio(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// oneUnit sets up a fresh env, runs one unit of fixed work in it, and
// tears it down. Set-up and work are timed separately.
func oneUnit(w *workload, r *run, traced bool) error {
	// Collect the previous unit's garbage now, so that its collection
	// is not charged to this unit's set-up or work.
	runtime.GC()
	var e env
	for i := 0; i < w.setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = w.setup(r, traced); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}

	cpu0, err := cpuSeconds()
	if err != nil {
		return err
	}
	t1 := time.Now()
	u, unitErr := e.unit(traced)
	wall := time.Since(t1).Seconds()
	cpu1, err := cpuSeconds()
	if err != nil {
		return err
	}
	if unitErr == nil {
		unitErr = e.verify(traced)
	}
	if err := errors.Join(unitErr, e.close()); err != nil {
		return err
	}
	r.attempted += u.attempted
	r.failed += u.failed
	r.wallS[traced] = append(r.wallS[traced], wall)
	if !traced {
		r.cpuS = append(r.cpuS, cpu1-cpu0)
		r.latencyMS = append(r.latencyMS, u.latencyMS...)
	}
	return nil
}

func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return tv2s(ru.Utime) + tv2s(ru.Stime), nil
}

func tv2s(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// printMetrics prints every metric as "metric <workload> <name> <value>
// <unit> n=<samples>", end-to-end first, sorted by name.
func printMetrics(workload string, sets ...metrics) {
	for _, m := range sets {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("metric %s %s %.6g %s n=%d\n", workload, n, m[n].Value, m[n].Unit, m[n].N)
		}
	}
}

func emit(res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
