// Command experiments regenerates the paper's tables and figures on the
// simulated testbed through the internal/harness engine: every artifact
// decomposes into independent cells executed on a bounded worker pool,
// TSV output is byte-identical regardless of -parallel, and an on-disk
// cell store (<out>/cells by default) lets repeated invocations skip
// cells whose inputs are unchanged.
//
// Usage:
//
//	experiments [-only table1,fig2,fig6,fig7,fig8,fig9,fig10,fig11,peaks,mitigations,capacity]
//	            [-out results] [-quick] [-seed N] [-parallel N] [-timeout D]
//	            [-cache=false] [-store-dir DIR] [-store-max-bytes N]
//	            [-archive=false] [-list]
//	            [-replacement lru|tree-plru|srrip|brrip]
//	            [-config '{"Latencies":{"QPI":60}}' | -config @overrides.json]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-version]
//
// The store writes each cell as it finishes, so a run that stops early
// — a -timeout, Ctrl-C / SIGTERM (cells already executing finish and
// the partial report is printed), or even SIGKILL — keeps every cell it
// completed, and a rerun resumes from them instead of starting over.
// Point -store-dir at a cohsimd -store-dir to share hits with daemons.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"bytes"
	"encoding/json"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
	"coherentleak/internal/store"
	"coherentleak/internal/version"
)

func main() {
	var (
		only     = flag.String("only", "", "comma-separated artifact list (default: all)")
		out      = flag.String("out", "results", "output directory for TSV files")
		quick    = flag.Bool("quick", false, "smaller payloads for a fast pass")
		seed     = flag.Uint64("seed", experiments.DefaultSeed, "experiment seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "max cells in flight")
		cache    = flag.Bool("cache", true, "skip cells with unchanged inputs via the on-disk cell store")
		archive  = flag.Bool("archive", true, "archive replay JSON records under <out>/replay")
		list     = flag.Bool("list", false, "list registered artifacts and exit")
		timeout  = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		replace  = flag.String("replacement", "", "cache replacement policy for every level (default LRU)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
		config   = flag.String("config", "", "machine-config overrides: JSON literal or @file, merged over the defaults (same schema as the daemon's job config)")
		storeDir = flag.String("store-dir", "", "on-disk cell store directory, one crash-safe file per cell, shareable with cohsimd replicas (empty = <out>/cells)")
		storeMax = flag.Int64("store-max-bytes", 0, "size bound on the cell store payload, oldest entries evicted (0 = unbounded)")
		showVer  = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("experiments", version.Get())
		return
	}

	// A sweep's live heap is small and bounded (one machine per in-flight
	// cell), so frequent GC cycles buy nothing; relax the pacer unless the
	// user asked for specific behavior via GOGC.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	// stopProfiles flushes any active profiles; it must run before every
	// exit path, including the failed-cells os.Exit below.
	stopProfiles := func() {}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memprof != "" {
		stopCPU := stopProfiles
		stopProfiles = func() {
			stopCPU()
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}
	}
	defer stopProfiles()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	reg := experiments.Artifacts()
	if *list {
		for _, a := range reg.Artifacts() {
			fmt.Printf("%-12s %s\n", a.Name, a.Description)
		}
		return
	}

	// Resolve and validate the full -only list before anything runs, so
	// an unknown name cannot surface after earlier artifacts executed.
	arts, err := reg.Select(strings.Split(*only, ","))
	if err != nil {
		die(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		die(err)
	}

	var cells store.CellStore
	if *cache {
		dir := *storeDir
		if dir == "" {
			dir = filepath.Join(*out, "cells")
		}
		disk, err := store.NewDisk(dir, *storeMax)
		if err != nil {
			die(err)
		}
		cells = disk
	}
	sinks := []harness.Sink{harness.TSVSink{Dir: *out, Log: os.Stdout}}
	if *archive {
		sinks = append(sinks, harness.ReplaySink{Dir: filepath.Join(*out, "replay")})
	}

	sizing := harness.SizingFull
	if *quick {
		sizing = harness.SizingQuick
	}
	runner := &harness.Runner{
		Parallel: *parallel,
		Progress: os.Stdout,
		Sinks:    sinks,
		Manifest: cells,
	}
	cfg := machine.DefaultConfig()
	if *config != "" {
		if err := applyConfig(&cfg, *config); err != nil {
			die(err)
		}
	}
	if *replace != "" {
		cfg.Replacement = *replace
	}
	if err := cfg.Validate(); err != nil {
		die(err)
	}
	report, err := runner.Run(ctx, harness.Plan{
		Cfg:    cfg,
		Seed:   *seed,
		Sizing: sizing,
	}, arts)
	if err != nil {
		stopProfiles()
		die(err)
	}

	fmt.Printf("done: %d artifact(s), %d cell(s) executed, %d cached, in %s at -parallel %d\n",
		len(report.Results), report.Executed, report.CacheHits,
		report.Wall.Round(time.Millisecond), *parallel)
	if report.Failed > 0 {
		for _, res := range report.Results {
			for _, c := range res.Cells {
				if c.Err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", c.Err)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "experiments: %d cell(s) failed; their rows are missing from the TSVs above\n", report.Failed)
		stopProfiles()
		os.Exit(1)
	}
}

// applyConfig merges -config overrides (a JSON literal, or @path to a
// JSON file) over cfg with the same strict semantics as daemon job
// submissions: unknown fields are rejected.
func applyConfig(cfg *machine.Config, arg string) error {
	raw := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			return err
		}
		raw = b
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return fmt.Errorf("config overrides: %w", err)
	}
	return nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
