package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"coherentleak/internal/capacity"
	"coherentleak/internal/replay"
)

// replayMain is `cohsim replay FILE`: it inspects an archived
// transmission (the JSON written by `cohsim covert -save`). It prints the
// summary, re-derives the accuracy from the archived bits as a
// consistency check, re-runs the capacity analysis, and renders the
// reception trace as a latency histogram per band.
func replayMain(args []string) {
	fs := flag.NewFlagSet("cohsim replay", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cohsim replay <archive.json>")
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cohsim replay:", err)
		os.Exit(1)
	}
	defer f.Close()
	rec, err := replay.Load(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cohsim replay:", err)
		os.Exit(1)
	}

	fmt.Printf("scenario:   %s (probe %s)\n", rec.Scenario, rec.Params.Probe)
	fmt.Printf("params:     C1=%d C0=%d Cb=%d Ts=%d\n",
		rec.Params.C1, rec.Params.C0, rec.Params.Cb, rec.Params.Ts)
	fmt.Printf("bits:       %d sent, %d received\n", len(rec.TxBits), len(rec.RxBits))
	fmt.Printf("accuracy:   %.4f stored", rec.Accuracy)
	re := rec.Reaccuracy()
	if re == rec.Accuracy {
		fmt.Println(" (recomputation matches)")
	} else {
		fmt.Printf(" BUT recomputes to %.4f — archive inconsistent\n", re)
	}
	fmt.Printf("raw rate:   %.1f Kbps over %d cycles\n", rec.RawKbps, rec.Duration)

	rep := capacity.Analyze(rec.Tx(), rec.Rx(), rec.RawKbps)
	fmt.Printf("capacity:   %s\n", rep)

	if len(rec.Bands) > 0 {
		fmt.Println("\ncalibrated bands:")
		for _, b := range rec.Bands {
			fmt.Printf("  %-8s [%4.0f..%4.0f] center %4.0f\n", b.Name, b.Lo, b.Hi, b.Center)
		}
	}

	if len(rec.Samples) > 0 {
		fmt.Printf("\nreception trace: %d samples\n", len(rec.Samples))
		// Latency histogram, 25-cycle buckets over the observed range.
		lo, hi := rec.Samples[0].Latency, rec.Samples[0].Latency
		for _, s := range rec.Samples {
			lo, hi = min(lo, s.Latency), max(hi, s.Latency)
		}
		const bucket = 25
		lo = lo / bucket * bucket
		counts := map[uint64]int{}
		peak := 1
		for _, s := range rec.Samples {
			b := (s.Latency - lo) / bucket
			counts[b]++
			peak = max(peak, counts[b])
		}
		for b := uint64(0); b*bucket+lo <= hi; b++ {
			n := counts[b]
			bar := strings.Repeat("#", n*50/peak)
			fmt.Printf("  %4d-%4d cy %5d %s\n", lo+b*bucket, lo+(b+1)*bucket-1, n, bar)
		}
	}
}
