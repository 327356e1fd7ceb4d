package difftest

import (
	"fmt"
	"testing"

	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/noise"
	"coherentleak/internal/sim"
)

// BenchmarkStream times RefLoop (ref) against kernel.Thread.Exec (exec)
// on noise-shaped programs: each thread, pinned to its own core, cycles
// through the three kernel-build phases internal/noise hands to Exec —
// a streaming read sweep, random mixed loads and stores over a hot
// quarter of the working set, and strided writes — with noise's default
// working set, phase length and think time. One iteration is one phase
// program per thread. `make bench-gate` feeds the output to
// cmd/benchgate, which fails when exec's aggregate time exceeds ref's
// by more than 10%.
func BenchmarkStream(b *testing.B) {
	for _, threads := range []int{1, 4, 8} {
		for _, exec := range []bool{false, true} {
			name := fmt.Sprintf("noise%d/ref", threads)
			if exec {
				name = fmt.Sprintf("noise%d/exec", threads)
			}
			b.Run(name, func(b *testing.B) { benchStream(b, threads, exec) })
		}
	}
}

func benchStream(b *testing.B, threads int, exec bool) {
	cfg := noise.DefaultConfig(threads)
	w := sim.NewWorld(sim.Config{Seed: 1})
	k := kernel.New(machine.New(w, machine.DefaultConfig()), 0)
	proc := k.NewProcess("bench")
	rng := sim.NewRand(cfg.Seed)
	for i := 0; i < threads; i++ {
		phases := noisePhases(cfg, proc.MustMmap(cfg.WorkingSetPages), rng.Split())
		progs := make([]*kernel.Program, len(phases))
		for p, ops := range phases {
			progs[p] = kernel.NewProgram(proc, len(ops))
			Compile(progs[p], ops)
		}
		k.Spawn(proc, i, fmt.Sprintf("cc%d", i), func(kt *kernel.Thread) {
			for n := 0; n < b.N; n++ {
				p := n % len(phases)
				if exec {
					kt.Exec(progs[p], nil)
				} else {
					RefLoop(kt, phases[p])
				}
			}
		})
	}
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

// noisePhases draws one program per kernel-build phase over the working
// set at base, in the shapes internal/noise generates.
func noisePhases(cfg noise.Config, base uint64, rng *sim.Rand) [][]Access {
	lines := uint64(cfg.WorkingSetPages) * kernel.PageSize / 64
	scan := make([]Access, cfg.OpsPerPhase)
	compile := make([]Access, cfg.OpsPerPhase)
	link := make([]Access, cfg.OpsPerPhase)
	for i := range scan {
		scan[i] = Access{Kind: kernel.OpLoad, VA: base + uint64(i)%lines*64, Think: cfg.ThinkCycles}
		kind := kernel.OpLoad
		if rng.Bool(0.3) {
			kind = kernel.OpStore
		}
		compile[i] = Access{Kind: kind, VA: base + rng.Uint64n(lines/4)*64, Think: cfg.ThinkCycles}
		link[i] = Access{Kind: kernel.OpStore, VA: base + uint64(8*i)%lines*64, Think: cfg.ThinkCycles}
	}
	return [][]Access{scan, compile, link}
}
