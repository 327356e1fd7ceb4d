package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"coherentleak/internal/version"
)

// workloads are the benchmark's named workloads.
var workloads = map[string]*workload{
	"paper-quick-cold": {
		name: "paper-quick-cold", setup: setupPaper, setupReps: paperSetupReps, cycle: 2,
		enough: func(*run) bool { return true }, finish: finishPaper,
	},
	"daemon-hot-cold": {
		name: "daemon-hot-cold", setup: setupDaemon, setupReps: 2, cycle: 4,
		enough: enoughDaemon, finish: finishDaemon,
	},
	"sweep-fleet-disk": {
		name: "sweep-fleet-disk", setup: setupSweep, setupReps: 5, cycle: 4,
		enough: enoughSweep, finish: finishSweep,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// endToEnd and perLayer are the metrics the JSON line carries, as
// BENCHMARK.json lists them. Every workload reports each of them; the
// per-workload metrics beyond these are printed as text lines only.
var (
	endToEnd = []string{"setup_s", "wall_s", "cpu_s", "rss_peak_mb", "op_mean_ms", "op_tail_ms"}
	perLayer = []string{
		"harness.run_s", "harness.cell_s_sum", "harness.cell_s_max", "harness.idle_s",
		"store.lookups", "store.hit_ratio", "store.lookup_us.p50", "store.puts", "store.put_us.p50",
		"self_s.harness", "self_s.store", "trace.overhead_s",
		"process.sys_s", "process.gc_cycles", "process.alloc_mb",
		"sim.switch_ns", "noise.kcycle_us", "kernel.exec_op_ns",
		"machine.load_hit_ns", "machine.load_miss_ns", "machine.store_rfo_ns", "machine.flush_reload_ns",
	}
)

func jsonNames(trace bool) []string {
	if trace {
		return perLayer
	}
	return endToEnd
}

// nproc is the number of CPUs the process may use; the benchmark keeps
// GOMAXPROCS at its default, which equals it.
func nproc() int { return runtime.NumCPU() }

// record prints the host and run record every result carries.
func record(workload string, r *run) {
	v := version.Get()
	fmt.Printf("record bench_version=%s workload=%s seed=%d seconds=%.0f trace=%v\n",
		benchVersion, workload, r.seed, r.seconds.Seconds(), r.trace)
	fmt.Printf("record cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s dirty=%v\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), orUnknown(v.Revision), v.Dirty)
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// cpuModel reads the processor name Linux reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
