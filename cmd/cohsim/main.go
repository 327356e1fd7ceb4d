// Command cohsim is the simulator's command line. With no subcommand it
// inspects the simulated testbed: it prints the machine configuration
// and the calibrated latency band for every (location, coherence state)
// combination pair — the §V micro-benchmark.
//
// Usage:
//
//	cohsim [-sockets N] [-cores N] [-protocol NAME] [-protocols]
//	       [-replacement NAME] [-replacements]
//	       [-samples N] [-seed N] [-mitigate-etom] [-mitigate-equalize]
//	cohsim covert [flags]   one covert-channel transmission (§VI–VII)
//	cohsim replay FILE      inspect an archive written by `covert -save`
//	cohsim sweep [flags]    a parameter sweep on a cohsimd daemon
//
// -protocol accepts any name in the coherence registry (MESI, MESIF,
// MOESI, DRAGON, WT-NA out of the box); -protocols lists them.
// -replacement accepts any name in the cache replacement-policy
// registry (LRU, tree-PLRU, SRRIP, BRRIP); -replacements lists them.
// Run a subcommand with -h for its flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/covert"
	"coherentleak/internal/machine"
	"coherentleak/internal/stats"
	"coherentleak/internal/version"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch cmd, args := os.Args[1], os.Args[2:]; cmd {
		case "covert":
			covertMain(args)
		case "replay":
			replayMain(args)
		case "sweep":
			sweepMain(args)
		default:
			fmt.Fprintf(os.Stderr, "cohsim: unknown subcommand %q\n", cmd)
			usage()
			os.Exit(2)
		}
		return
	}
	bandMain()
}

// usage prints the subcommand list, then the band report's flags once
// bandMain has defined them.
func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintln(out, "usage: cohsim [flags]          print the latency bands")
	fmt.Fprintln(out, "       cohsim covert [flags]   run one covert-channel transmission")
	fmt.Fprintln(out, "       cohsim replay FILE      inspect an archived transmission")
	fmt.Fprintln(out, "       cohsim sweep [flags]    run a parameter sweep on cohsimd")
	flag.PrintDefaults()
}

// bandMain prints the machine configuration and the latency bands.
func bandMain() {
	flag.Usage = usage
	var (
		sockets   = flag.Int("sockets", 2, "processor sockets")
		cores     = flag.Int("cores", 6, "cores per socket")
		protocol  = flag.String("protocol", "MESIF", "coherence protocol (see -protocols)")
		listProto = flag.Bool("protocols", false, "list registered coherence protocols and exit")
		replace   = flag.String("replacement", "", "cache replacement policy (see -replacements; default LRU)")
		listRepl  = flag.Bool("replacements", false, "list registered replacement policies and exit")
		samples   = flag.Int("samples", 1000, "timed loads per combination pair")
		seed      = flag.Uint64("seed", 42, "simulation seed")
		etom      = flag.Bool("mitigate-etom", false, "enable the E->M notification hardware fix")
		equalize  = flag.Bool("mitigate-equalize", false, "enable socket latency equalization")
		showVer   = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cohsim: unexpected argument %q (a subcommand goes before any flag)\n", flag.Arg(0))
		os.Exit(2)
	}
	if *showVer {
		fmt.Println("cohsim", version.Get())
		return
	}

	if *listProto {
		for _, p := range coherence.Protocols() {
			spec := coherence.MustSpec(p)
			fmt.Printf("%-8s %s\n", spec.Name(), spec.Description())
		}
		return
	}

	if *listRepl {
		for _, info := range cache.Policies() {
			fmt.Printf("%-10s %s\n", info.Name, info.Description)
		}
		return
	}

	cfg := machine.DefaultConfig()
	cfg.Sockets = *sockets
	cfg.CoresPerSocket = *cores
	spec, err := coherence.SpecFor(coherence.Protocol(*protocol))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cohsim:", err)
		os.Exit(2)
	}
	cfg.Protocol = coherence.Protocol(spec.Name())
	pol, err := cache.PolicyFor(*replace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cohsim:", err)
		os.Exit(2)
	}
	cfg.Replacement = pol.String()
	cfg.Mitigations.LLCNotifiedOfEToM = *etom
	cfg.Mitigations.EqualizeSocketLatency = *equalize
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "cohsim:", err)
		os.Exit(2)
	}

	fmt.Printf("machine: %d socket(s) x %d cores, %s, %.2f GHz\n",
		cfg.Sockets, cfg.CoresPerSocket, cfg.Protocol, cfg.ClockHz/1e9)
	fmt.Printf("caches:  L1 %dKB/%dw  L2 %dKB/%dw  LLC %dMB/%dw (inclusive=%v)\n",
		cfg.L1.SizeBytes/1024, cfg.L1.Ways,
		cfg.L2.SizeBytes/1024, cfg.L2.Ways,
		cfg.LLC.SizeBytes/(1024*1024), cfg.LLC.Ways, cfg.InclusiveLLC)
	fmt.Printf("policy:  %s replacement\n", cfg.ReplacementPolicy())
	if *etom || *equalize {
		fmt.Printf("defenses: etom=%v equalize=%v\n", *etom, *equalize)
	}
	fmt.Println()
	fmt.Println("combination pair   mean    p5     p95    band")

	placements := covert.AllPlacements
	if cfg.Sockets < 2 {
		placements = []covert.Placement{covert.LShared, covert.LExcl}
	}
	for i, pl := range placements {
		xs, err := covert.MeasurePlacement(cfg, *seed+uint64(i)*7, pl, *samples, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cohsim:", err)
			os.Exit(1)
		}
		printBand(pl.String(), xs)
	}
	xs, err := covert.MeasureDRAM(cfg, *seed+991, *samples, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cohsim:", err)
		os.Exit(1)
	}
	printBand("DRAM", xs)
}

func printBand(name string, xs []float64) {
	s := stats.Summarize(xs)
	fmt.Printf("%-18s %6.1f %6.1f %6.1f  [%.0f..%.0f] cycles\n",
		name, s.Mean, s.P5, s.P95, s.Min, s.Max)
}
