package coherentleak

// Benchmark harness: the paper artifacts are regenerated through the
// same internal/harness Runner the cmd/experiments binary drives (quick
// sizing, one sub-benchmark per registered artifact, plus a worker-pool
// scaling bench), alongside micro-benchmarks of the substrates and
// ablation benches for the design choices called out in DESIGN.md §5.
//
// Run: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	"coherentleak/internal/coherence"
	"coherentleak/internal/covert"
	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// --- artifact benchmarks (registry-driven) ---------------------------

func quickPlan() harness.Plan {
	return harness.Plan{
		Cfg:    machine.DefaultConfig(),
		Seed:   experiments.DefaultSeed,
		Sizing: harness.SizingQuick,
	}
}

func runArtifacts(b *testing.B, names []string, parallel int) *harness.RunReport {
	b.Helper()
	arts, err := experiments.Artifacts().Select(names)
	if err != nil {
		b.Fatal(err)
	}
	r := &harness.Runner{Parallel: parallel}
	rep, err := r.Run(context.Background(), quickPlan(), arts)
	if err != nil {
		b.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkArtifact regenerates each registered paper artifact at quick
// sizing through the harness Runner — the same engine, registry and
// cell decomposition cmd/experiments uses.
func BenchmarkArtifact(b *testing.B) {
	for _, name := range experiments.Artifacts().Names() {
		b.Run(name, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				rep := runArtifacts(b, []string{name}, 1)
				rows = rep.Results[0].NumRows()
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkRunnerParallel measures worker-pool scaling over a mixed
// artifact set (multi-cell, varied cell cost).
func BenchmarkRunnerParallel(b *testing.B) {
	names := []string{"fig2", "fig9", "capacity"}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runArtifacts(b, names, par)
			}
		})
	}
}

// --- ablation benchmarks (DESIGN.md §5) ------------------------------

// BenchmarkAblationProtocol compares the channel across MESI, MESIF and
// MOESI — the §VIII-E claim that the findings extend across protocols.
func BenchmarkAblationProtocol(b *testing.B) {
	bits := experiments.PatternBits(3, 40)
	for _, p := range []coherence.Protocol{coherence.MESI, coherence.MESIF, coherence.MOESI} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				ch := covert.NewChannel(covert.Scenarios[0])
				ch.Config.Protocol = p
				ch.WorldSeed = uint64(i) + 7
				res, err := ch.Run(bits)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.Accuracy
			}
			b.ReportMetric(acc*100, "accuracy%")
		})
	}
}

// BenchmarkAblationInclusion compares inclusive vs non-inclusive LLCs —
// §VIII-E: "changing the cache inclusion property alone may not be
// sufficient to eliminate the timing channels".
func BenchmarkAblationInclusion(b *testing.B) {
	bits := experiments.PatternBits(5, 40)
	for _, inclusive := range []bool{true, false} {
		inclusive := inclusive
		name := "inclusive"
		if !inclusive {
			name = "non-inclusive"
		}
		b.Run(name, func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				ch := covert.NewChannel(covert.Scenarios[0])
				ch.Config.InclusiveLLC = inclusive
				ch.WorldSeed = uint64(i) + 11
				res, err := ch.Run(bits)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.Accuracy
			}
			b.ReportMetric(acc*100, "accuracy%")
		})
	}
}

// BenchmarkAblationCoherenceKind compares directory (core-valid bits) vs
// snoop-bus coherence — §VIII-E's claim that the findings extend across
// protocol classes.
func BenchmarkAblationCoherenceKind(b *testing.B) {
	bits := experiments.PatternBits(15, 40)
	for _, snoop := range []bool{false, true} {
		snoop := snoop
		name := "directory"
		if snoop {
			name = "snoop-bus"
		}
		b.Run(name, func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				ch := covert.NewChannel(covert.Scenarios[0])
				ch.Config.SnoopBus = snoop
				ch.WorldSeed = uint64(i) + 17
				res, err := ch.Run(bits)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.Accuracy
			}
			b.ReportMetric(acc*100, "accuracy%")
		})
	}
}

// BenchmarkAblationExclusiveLLC contrasts an E/S scenario (dies) with a
// location scenario (survives) on a victim-cache LLC.
func BenchmarkAblationExclusiveLLC(b *testing.B) {
	bits := experiments.PatternBits(19, 40)
	for _, name := range []string{"LExclc-LSharedb", "RSharedc-LSharedb"} {
		name := name
		b.Run(name, func(b *testing.B) {
			sc, err := covert.ScenarioByName(name)
			if err != nil {
				b.Fatal(err)
			}
			acc := 0.0
			for i := 0; i < b.N; i++ {
				ch := covert.NewChannel(sc)
				ch.Config.InclusiveLLC = false
				ch.Config.ExclusiveLLC = true
				ch.WorldSeed = uint64(i) + 23
				res, err := ch.Run(bits)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.Accuracy
			}
			b.ReportMetric(acc*100, "accuracy%")
		})
	}
}

// BenchmarkAblationJitter sweeps the base measurement jitter and reports
// channel accuracy — band separability vs noise width.
func BenchmarkAblationJitter(b *testing.B) {
	bits := experiments.PatternBits(9, 40)
	for _, j := range []int64{2, 5, 10, 20} {
		j := j
		b.Run(jitterName(j), func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				ch := covert.NewChannel(covert.Scenarios[0])
				ch.Config.Latencies.Jitter = j
				ch.WorldSeed = uint64(i) + 13
				res, err := ch.Run(bits)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.Accuracy
			}
			b.ReportMetric(acc*100, "accuracy%")
		})
	}
}

func jitterName(j int64) string {
	return "jitter" + string(rune('0'+j/10)) + string(rune('0'+j%10))
}

// BenchmarkAblationProbeMethod compares clflush against §VI-B's
// eviction-of-all-ways alternative (slower, no flush instruction needed).
func BenchmarkAblationProbeMethod(b *testing.B) {
	bits := experiments.PatternBits(27, 40)
	for _, method := range []covert.ProbeMethod{covert.ProbeClflush, covert.ProbeEviction} {
		method := method
		b.Run(method.String(), func(b *testing.B) {
			rate := 0.0
			for i := 0; i < b.N; i++ {
				ch := covert.NewChannel(covert.Scenarios[0])
				p := covert.DefaultParams()
				p.Probe = method
				ch.Params = p
				ch.WorldSeed = uint64(i) + 31
				res, err := ch.Run(bits)
				if err != nil {
					b.Fatal(err)
				}
				if res.Accuracy < 0.95 {
					b.Fatalf("accuracy %v", res.Accuracy)
				}
				rate = res.RawKbps
			}
			b.ReportMetric(rate, "Kbps")
		})
	}
}

// BenchmarkExtensionParallelLanes measures the multi-lane bandwidth
// extension (Channel.Lanes).
func BenchmarkExtensionParallelLanes(b *testing.B) {
	bits := experiments.PatternBits(29, 120)
	for _, lanes := range []int{1, 2, 4, 8} {
		lanes := lanes
		b.Run(laneName(lanes), func(b *testing.B) {
			rate, acc := 0.0, 0.0
			for i := 0; i < b.N; i++ {
				ch := covert.NewChannel(covert.Scenarios[0])
				ch.Lanes = lanes
				ch.WorldSeed = uint64(i) + 37
				res, err := ch.Run(bits)
				if err != nil {
					b.Fatal(err)
				}
				rate, acc = res.RawKbps, res.Accuracy
			}
			b.ReportMetric(rate, "Kbps")
			b.ReportMetric(acc*100, "accuracy%")
		})
	}
}

func laneName(n int) string {
	return "lanes" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// BenchmarkAblationPrefetcher measures the channel with the next-line
// prefetcher enabled.
func BenchmarkAblationPrefetcher(b *testing.B) {
	bits := experiments.PatternBits(35, 40)
	for _, pf := range []bool{false, true} {
		pf := pf
		name := "off"
		if pf {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				ch := covert.NewChannel(covert.Scenarios[0])
				ch.Config.NextLinePrefetch = pf
				ch.WorldSeed = uint64(i) + 41
				res, err := ch.Run(bits)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.Accuracy
			}
			b.ReportMetric(acc*100, "accuracy%")
		})
	}
}

// --- substrate micro-benchmarks --------------------------------------

// BenchmarkMachineLoadL1 measures the simulator's hot path: an L1 hit.
func BenchmarkMachineLoadL1(b *testing.B) {
	w := sim.NewWorld(sim.Config{Seed: 1})
	m := machine.New(w, machine.DefaultConfig())
	done := false
	w.Spawn("bench", func(t *sim.Thread) {
		m.Load(t, 0, 0x1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Load(t, 0, 0x1000)
		}
		done = true
	})
	if err := w.RunUntilDeadline(sim.NoDeadline, func() bool { return done }); err != nil {
		b.Fatal(err)
	}
	w.Drain()
}

// BenchmarkMachineFlushReload measures one spy probe period.
func BenchmarkMachineFlushReload(b *testing.B) {
	w := sim.NewWorld(sim.Config{Seed: 1})
	m := machine.New(w, machine.DefaultConfig())
	done := false
	w.Spawn("bench", func(t *sim.Thread) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Flush(t, 0, 0x1000)
			m.Load(t, 1, 0x1000)
			m.Load(t, 0, 0x1000)
		}
		done = true
	})
	if err := w.RunUntilDeadline(sim.NoDeadline, func() bool { return done }); err != nil {
		b.Fatal(err)
	}
	w.Drain()
}

// BenchmarkKSMScan measures a deduplication pass over 64 process pages.
func BenchmarkKSMScan(b *testing.B) {
	w := sim.NewWorld(sim.Config{Seed: 1})
	k := kernel.New(machine.New(w, machine.DefaultConfig()), 0)
	var pattern [kernel.PageSize]byte
	for p := 0; p < 8; p++ {
		proc := k.NewProcess("p")
		va := proc.MustMmap(8)
		for pg := uint64(0); pg < 8; pg++ {
			pattern[0] = byte(pg) // 8 distinct contents, repeated per process
			if err := proc.WriteBytes(va+pg*kernel.PageSize, pattern[:]); err != nil {
				b.Fatal(err)
			}
		}
		if err := proc.Madvise(va, 8); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.KSM.Scan()
	}
}

// BenchmarkCalibrate measures full band calibration.
func BenchmarkCalibrate(b *testing.B) {
	cfg := machine.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := covert.Calibrate(cfg, uint64(i), 100, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeakSearch regenerates the abstract's headline rates (700
// Kbps binary / 1.1 Mbps multi-bit) on a reduced payload — kept as a
// direct call (not registry-driven) because it sweeps a smaller payload
// than the peaks artifact's quick sizing.
func BenchmarkPeakSearch(b *testing.B) {
	cfg := machine.DefaultConfig()
	var pk *experiments.PeakRates
	var err error
	for i := 0; i < b.N; i++ {
		pk, err = experiments.FindPeakRates(cfg, 0.97, 100, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pk.BinaryKbps, "binKbps")
	b.ReportMetric(pk.MultiBitKbps, "mbKbps")
}
