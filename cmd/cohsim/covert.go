package main

import (
	"flag"
	"fmt"
	"os"

	"coherentleak/internal/capacity"
	"coherentleak/internal/covert"
	"coherentleak/internal/machine"
	"coherentleak/internal/mitigate"
	"coherentleak/internal/noise"
	"coherentleak/internal/replay"
	"coherentleak/internal/sim"
	"coherentleak/internal/trace"
)

// covertMain is `cohsim covert`: it runs one covert-channel transmission
// (§VI–VII) end to end and reports the spy's reception quality.
func covertMain(args []string) {
	fs := flag.NewFlagSet("cohsim covert", flag.ExitOnError)
	var (
		scenario  = fs.String("scenario", "LExclc-LSharedb", "Table I scenario name")
		text      = fs.String("text", "coherence states leak", "message to transmit")
		bitCount  = fs.Int("bits", 0, "transmit N pseudo-random bits instead of -text")
		rate      = fs.Float64("rate", 0, "target raw bit rate in Kbps (0 = reliable default)")
		mode      = fs.String("mode", "ksm", "shared page mode: ksm or explicit")
		noiseN    = fs.Int("noise", 0, "co-located kernel-build threads")
		multibit  = fs.Bool("multibit", false, "use the 2-bit-symbol channel (§VIII-D)")
		lanes     = fs.Int("lanes", 1, "parallel cache-line lanes (extension; 1 = the paper's channel)")
		probe     = fs.String("probe", "clflush", "spy probe: clflush or eviction (§VI-B)")
		defense   = fs.String("defense", "none", "defense: none, monitor, ksm-guard, etom, equalize, full")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		verbose   = fs.Bool("v", false, "print the spy's reception trace")
		traceFile = fs.String("tracefile", "", "write the machine's memory-operation trace (TSV)")
		saveFile  = fs.String("save", "", "archive the transmission result as JSON (replay schema)")
	)
	fs.Parse(args)

	cfg := machine.DefaultConfig()
	switch *defense {
	case "none", "monitor", "ksm-guard":
	case "etom":
		cfg = mitigate.HardwareFix(cfg)
	case "equalize":
		cfg = mitigate.TimingObfuscator(cfg)
	case "full":
		cfg = mitigate.FullHardwareDefense(cfg)
	default:
		fail(fmt.Errorf("unknown defense %q", *defense))
	}

	shareMode := covert.ShareKSM
	if *mode == "explicit" {
		shareMode = covert.ShareExplicit
	} else if *mode != "ksm" {
		fail(fmt.Errorf("unknown mode %q", *mode))
	}

	var recorder *trace.Recorder
	preRun := func(s *covert.Session) {
		if *traceFile != "" {
			recorder = trace.Attach(s.Mach, 65536, trace.NewFilter())
		}
		if err := noise.CoLocate(s, *noiseN); err != nil {
			fail(err)
		}
		switch *defense {
		case "monitor":
			mitigate.AttachMonitor(s.Kern, mitigate.DefaultMonitorConfig(), mitigate.AttackLines(s))
		case "ksm-guard":
			mitigate.AttachKSMGuard(s.Kern, mitigate.DefaultKSMGuardConfig())
		}
	}

	bits := covert.TextToBits(*text)
	if *bitCount > 0 {
		bits = patternBits(*seed^0xb175, *bitCount)
	}

	ch, mb, err := channelFlags{
		scenario: *scenario, rate: *rate, multibit: *multibit, lanes: *lanes, probe: *probe,
		save: *saveFile != "",
	}.build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cohsim covert:", err)
		os.Exit(2)
	}
	if mb != nil {
		mb.Mode, mb.WorldSeed, mb.PatternSeed, mb.PreRun = shareMode, *seed, *seed^0xfeed, preRun
		runMultiBit(mb, bits, *verbose)
		writeTrace(recorder, *traceFile)
		return
	}
	ch.Mode, ch.WorldSeed, ch.PatternSeed, ch.PreRun = shareMode, *seed, *seed^0xfeed, preRun
	res, err := ch.Run(bits)
	if err != nil {
		fail(err)
	}

	fmt.Printf("scenario:      %s (%s sharing)\n", ch.Scenario.Name(), shareMode)
	if ch.Lanes > 1 {
		fmt.Printf("lanes:         %d cache lines in parallel\n", ch.Lanes)
	}
	fmt.Printf("params:        C1=%d C0=%d Cb=%d Ts=%d\n", ch.Params.C1, ch.Params.C0, ch.Params.Cb, ch.Params.Ts)
	fmt.Printf("transmitted:   %d bits\n", len(res.TxBits))
	fmt.Printf("received:      %d bits\n", len(res.RxBits))
	fmt.Printf("raw accuracy:  %.2f%%\n", res.Accuracy*100)
	fmt.Printf("raw bit rate:  %.1f Kbps (attempted %.1f)\n", res.RawKbps, res.AttemptedKbps)
	fmt.Printf("sync:          %d cycles (%.2f us)\n", res.SyncCycles,
		cfg.CyclesToSeconds(res.SyncCycles)*1e6)
	rep := capacity.Analyze(res.TxBits, res.RxBits, res.RawKbps)
	fmt.Printf("capacity:      %s\n", rep)
	if *bitCount == 0 {
		fmt.Printf("decoded text:  %q\n", covert.BitsToText(res.RxBits))
	}
	if *verbose {
		dumpTrace(res.Samples)
	}
	writeTrace(recorder, *traceFile)
	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := replay.Save(f, replay.FromResult(res, true)); err != nil {
			fail(err)
		}
		fmt.Printf("archived:      %s\n", *saveFile)
	}
}

// writeTrace dumps a recorder's events and its flush+reload ranking.
func writeTrace(r *trace.Recorder, path string) {
	if r == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := r.WriteTSV(f); err != nil {
		fail(err)
	}
	fmt.Printf("trace:         %d events -> %s\n", r.Len(), path)
	top := r.ByLine()
	if len(top) > 0 && top[0].FlushLoadPairs > 0 {
		fmt.Printf("most probed:   line %#x (%d flush+reload pairs)\n",
			top[0].Line, top[0].FlushLoadPairs)
	}
}

// channelFlags are the flags that shape the channel.
type channelFlags struct {
	scenario string
	rate     float64
	multibit bool
	lanes    int
	probe    string
	// save reports whether -save asked for a replay archive.
	save bool
}

// build validates the channel flags and returns the channel they select:
// the 2-bit channel when multibit is set, else the binary channel. The
// 2-bit channel runs on one line with clflush probing, and the replay
// schema records a binary channel's scenario and C1/C0/Cb parameters, so
// it rejects -lanes > 1, -probe eviction and -save rather than ignoring
// them.
func (f channelFlags) build(cfg machine.Config) (*covert.Channel, *covert.MultiBitChannel, error) {
	var probe covert.ProbeMethod
	switch f.probe {
	case "clflush":
	case "eviction":
		probe = covert.ProbeEviction
	default:
		return nil, nil, fmt.Errorf("unknown probe %q", f.probe)
	}
	if f.multibit {
		if f.lanes > 1 {
			return nil, nil, fmt.Errorf("-multibit runs on a single line; -lanes %d is not supported", f.lanes)
		}
		if probe == covert.ProbeEviction {
			return nil, nil, fmt.Errorf("-multibit needs clflush probing; -probe eviction is not supported")
		}
		if f.save {
			return nil, nil, fmt.Errorf("-multibit results have no replay schema; -save is not supported")
		}
		return nil, &covert.MultiBitChannel{Config: cfg, Params: covert.MultiBitParamsForRate(cfg, f.rate)}, nil
	}
	sc, err := covert.ScenarioByName(f.scenario)
	if err != nil {
		return nil, nil, err
	}
	params := covert.ParamsForRate(cfg, sc, f.rate)
	params.Probe = probe
	return &covert.Channel{Config: cfg, Scenario: sc, Params: params, Lanes: f.lanes}, nil, nil
}

func runMultiBit(ch *covert.MultiBitChannel, bits []byte, verbose bool) {
	if len(bits)%2 != 0 {
		bits = append(bits, 0)
	}
	res, err := ch.Run(bits)
	if err != nil {
		fail(err)
	}
	fmt.Printf("channel:       2-bit symbols over 4 combination pairs\n")
	fmt.Printf("params:        Cs=%d Gap=%d Ts=%d\n", ch.Params.Cs, ch.Params.Gap, ch.Params.Ts)
	fmt.Printf("transmitted:   %d bits (%d symbols)\n", len(res.TxBits), len(res.TxSymbols))
	fmt.Printf("received:      %d bits\n", len(res.RxBits))
	fmt.Printf("raw accuracy:  %.2f%%\n", res.Accuracy*100)
	fmt.Printf("raw bit rate:  %.1f Kbps\n", res.RawKbps)
	if verbose {
		dumpTrace(res.Samples)
	}
}

func dumpTrace(samples []covert.Sample) {
	fmt.Println("\nreception trace (latency cycles):")
	for i, s := range samples {
		fmt.Printf("%5d", s.Latency)
		if (i+1)%16 == 0 {
			fmt.Println()
		}
	}
	fmt.Println()
}

func patternBits(seed uint64, n int) []byte {
	r := sim.NewRand(seed)
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(r.Uint64() & 1)
	}
	return bits
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cohsim covert:", err)
	os.Exit(1)
}
