// Command cohsim-worker is one member of the experiment daemon's
// scale-out fleet: it registers with a running cohsimd, long-polls for
// leased harness cells, executes them against the same deterministic
// simulator (so any worker's result is byte-identical to a local run),
// and reports results or structured failures back.
//
// Usage:
//
//	cohsim-worker [-server http://localhost:8080] [-name NAME]
//	              [-slots 1] [-poll 15s]
//
// Fault semantics: the coordinator covers every leased cell with a
// deadline. If this process crashes or hangs, the lease is reclaimed
// and the cell retried on another worker (or in-process), so killing a
// worker mid-cell never loses work. SIGINT/SIGTERM finishes the cells
// in flight, deregisters, and exits; a worker the daemon has forgotten
// (expiry, daemon restart) transparently re-registers.
//
// Run a fleet of four against a local daemon:
//
//	make run-daemon &
//	make run-workers N=4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"coherentleak/internal/dispatch"
	"coherentleak/internal/experiments"
	"coherentleak/internal/version"
)

func main() {
	var (
		server  = flag.String("server", "http://localhost:8080", "cohsimd base URL")
		name    = flag.String("name", "", "worker name in /v1/workers and SSE events (default host-pid)")
		slots   = flag.Int("slots", 1, "cells executed concurrently")
		poll    = flag.Duration("poll", 0, "long-poll wait per lease request (0 = server suggestion)")
		showVer = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("cohsim-worker", version.Get())
		return
	}

	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	w, err := dispatch.NewWorker(dispatch.WorkerOptions{
		Server:   *server,
		Name:     *name,
		Registry: experiments.Artifacts(),
		Slots:    *slots,
		PollWait: *poll,
		Log:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cohsim-worker:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	err = w.Run(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "cohsim-worker:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cohsim-worker: %s stopped after %s\n", *name, time.Since(start).Round(time.Second))
}
