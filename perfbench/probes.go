package main

import (
	"fmt"
	"time"

	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/noise"
	"coherentleak/internal/sim"
)

// The simulator probes time one layer's hot operation in isolation, in
// host nanoseconds per operation, on fresh worlds built with the public
// constructors and the default machine config. Each probe runs probeReps
// times and reports the median. They run only in traced runs.

const (
	probeReps = 5
	probeOps  = 20000
)

// probe times body probeReps times and reports the median host time per
// op in the given unit.
func probe(layer metrics, name, unit string, ops int, body func() error) error {
	per := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		if err := body(); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		d := time.Since(start)
		scale := 1.0
		if unit == "us" {
			scale = 1e-3
		}
		per = append(per, float64(d.Nanoseconds())/float64(ops)*scale)
	}
	layer.set(name, median(per), unit, probeReps)
	return nil
}

// onMachine runs body on one simulated thread of a fresh default machine.
func onMachine(body func(m *machine.Machine, t *sim.Thread)) error {
	w := sim.NewWorld(sim.Config{Seed: 1})
	m := machine.New(w, machine.DefaultConfig())
	w.Spawn("probe", func(t *sim.Thread) { body(m, t) })
	return w.Run()
}

func probes(layer metrics) error {
	steps := []struct {
		name, unit string
		ops        int
		body       func() error
	}{
		{"sim.switch_ns", "ns", 2 * probeOps, func() error {
			// Two threads alternating one-cycle advances: every Advance
			// hands control to the other thread.
			w := sim.NewWorld(sim.Config{Seed: 1})
			for i := 0; i < 2; i++ {
				w.Spawn(fmt.Sprintf("t%d", i), func(t *sim.Thread) {
					for j := 0; j < probeOps; j++ {
						t.Advance(1)
					}
				})
			}
			return w.Run()
		}},
		{"machine.load_hit_ns", "ns", probeOps, func() error {
			return onMachine(func(m *machine.Machine, t *sim.Thread) {
				for i := 0; i < probeOps; i++ {
					m.Load(t, 0, 0x1000)
				}
			})
		}},
		{"machine.load_miss_ns", "ns", probeOps, func() error {
			// Every load touches a new line, so none hits any cache.
			return onMachine(func(m *machine.Machine, t *sim.Thread) {
				for i := 0; i < probeOps; i++ {
					m.Load(t, 0, 0x100000+uint64(i)*64)
				}
			})
		}},
		{"machine.store_rfo_ns", "ns", probeOps, func() error {
			// A load on core 1 then a store on core 0: each store must
			// invalidate core 1's copy. The time includes the load.
			return onMachine(func(m *machine.Machine, t *sim.Thread) {
				for i := 0; i < probeOps; i++ {
					m.Load(t, 1, 0x2000)
					m.Store(t, 0, 0x2000)
				}
			})
		}},
		{"machine.flush_reload_ns", "ns", probeOps, func() error {
			// One spy probe period: flush, the trojan's load, the reload.
			return onMachine(func(m *machine.Machine, t *sim.Thread) {
				for i := 0; i < probeOps; i++ {
					m.Flush(t, 0, 0x3000)
					m.Load(t, 1, 0x3000)
					m.Load(t, 0, 0x3000)
				}
			})
		}},
		{"kernel.exec_op_ns", "ns", probeOps, func() error {
			w := sim.NewWorld(sim.Config{Seed: 1})
			k := kernel.New(machine.New(w, machine.DefaultConfig()), 0)
			proc := k.NewProcess("probe")
			const pages = 16
			va := proc.MustMmap(pages)
			const perProg = 1000
			prog := kernel.NewProgram(proc, perProg)
			for i := 0; i < perProg; i++ {
				prog.Load(va+uint64(i*64)%(pages*kernel.PageSize), 4)
			}
			var ops uint64
			k.Spawn(proc, 0, "probe", func(t *kernel.Thread) {
				for i := 0; i < probeOps/perProg; i++ {
					t.Exec(prog, &ops)
				}
			})
			if err := w.Run(); err != nil {
				return err
			}
			if ops != probeOps {
				return fmt.Errorf("executed %d ops, want %d", ops, probeOps)
			}
			return nil
		}},
		{"noise.kcycle_us", "us", noiseKCycles, func() error {
			// Host time per 1000 simulated cycles of the default
			// eight-thread kernel-build noise.
			w := sim.NewWorld(sim.Config{Seed: 1})
			k := kernel.New(machine.New(w, machine.DefaultConfig()), 0)
			nw, err := noise.Attach(k, noise.DefaultConfig(8))
			if err != nil {
				return err
			}
			err = w.RunUntilDeadline(noiseKCycles*1000, nil)
			nw.Stop()
			w.Drain()
			return err
		}},
	}
	for _, s := range steps {
		if err := probe(layer, s.name, s.unit, s.ops, s.body); err != nil {
			return err
		}
	}
	return nil
}

// noiseKCycles is how many thousand simulated cycles the noise probe runs.
const noiseKCycles = 2000
