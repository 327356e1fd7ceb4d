// Command benchgate is the CI gate for the access-stream executor's
// performance contract. It reads `go test -bench` output on stdin,
// pairs every BenchmarkStream/<shape>/ref result (the hand-written
// per-op loop) with its /exec sibling (kernel.Thread.Exec), and fails
// (exit 1) when Exec's aggregate time exceeds the loop's by more than
// -max-regress (default 10%).
//
// The comparison is same-run, same-machine: both sides execute inside
// one `go test -bench` invocation, so the gate is insensitive to runner
// speed and only measures the relative split between the two paths.
// Exec is byte-identical to the loop and exists to be faster, so
// "exec > 1.1x ref" means the fusion machinery is a net loss and the
// gate should trip.
//
// Usage:
//
//	go test -bench=BenchmarkStream -run='^$' ./internal/kernel/difftest/ | go run ./cmd/benchgate
//	go run ./cmd/benchgate -max-regress 0.10 < bench.txt
//
// Per-shape ratios are printed for diagnosis but the gate itself is
// aggregate-only: the sum over shapes is dominated by the multi-thread
// shapes and stable enough to gate on.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	maxRegress := flag.Float64("max-regress", 0.10, "allowed exec-vs-ref aggregate slowdown (0.10 = 10%)")
	flag.Parse()

	ref, exec, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	shapes := make([]string, 0, len(ref))
	for shape := range ref {
		if _, ok := exec[shape]; ok {
			shapes = append(shapes, shape)
		}
	}
	sort.Strings(shapes)
	if len(shapes) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no BenchmarkStream/<shape>/{ref,exec} pairs on stdin")
		os.Exit(1)
	}

	var sumR, sumE float64
	fmt.Printf("%-16s %14s %14s %8s\n", "shape", "ref ns/op", "exec ns/op", "ratio")
	for _, shape := range shapes {
		r, e := ref[shape], exec[shape]
		sumR += r
		sumE += e
		fmt.Printf("%-16s %14.0f %14.0f %8.3f\n", shape, r, e, e/r)
	}
	ratio := sumE / sumR
	fmt.Printf("%-16s %14.0f %14.0f %8.3f\n", "TOTAL", sumR, sumE, ratio)

	limit := 1 + *maxRegress
	if ratio > limit {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — Exec aggregate is %.1f%% of the hand-written loop (limit %.0f%%)\n",
			ratio*100, limit*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — Exec aggregate is %.1f%% of the hand-written loop (limit %.0f%%)\n",
		ratio*100, limit*100)
}

// parse extracts ns/op keyed by shape for the ref and exec variants of
// BenchmarkStream. Repeated results for the same sub-benchmark (e.g.
// -count>1) are averaged.
func parse(r io.Reader) (ref, exec map[string]float64, err error) {
	ref = map[string]float64{}
	exec = map[string]float64{}
	counts := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// BenchmarkStream/<shape>/<side>-<procs>  <iters>  <ns> ns/op  ...
		if len(fields) < 4 || fields[3] != "ns/op" || !strings.HasPrefix(fields[0], "BenchmarkStream/") {
			continue
		}
		ns, perr := strconv.ParseFloat(fields[2], 64)
		if perr != nil {
			continue
		}
		parts := strings.Split(fields[0], "/")
		if len(parts) != 3 {
			continue
		}
		shape, side := parts[1], parts[2]
		if i := strings.LastIndexByte(side, '-'); i >= 0 {
			side = side[:i] // strip the -<GOMAXPROCS> suffix
		}
		var m map[string]float64
		switch side {
		case "ref":
			m = ref
		case "exec":
			m = exec
		default:
			continue
		}
		key := shape + "/" + side
		counts[key]++
		m[shape] += (ns - m[shape]) / float64(counts[key])
	}
	return ref, exec, sc.Err()
}
