// Package mitigate implements the paper's three proposed defenses
// (§VIII-E) against coherence-state covert channels:
//
//  1. A monitor thread that watches shared pages for flush+reload probe
//     patterns and injects targeted loads, converting E-state blocks to S
//     and scrambling the spy's timing.
//  2. A KSM guard that un-merges deduplicated pages showing suspicious
//     access patterns, destroying the trojan/spy shared frame.
//  3. Hardware changes — E->M notification to the LLC and socket-latency
//     equalization — exposed as machine.Mitigations flags; this package
//     provides the helpers that enable them on a channel configuration.
package mitigate

import (
	"coherentleak/internal/covert"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/mem"
	"coherentleak/internal/sim"
)

// MonitorConfig tunes the noise-injection defense.
type MonitorConfig struct {
	// Core is where the monitor thread runs.
	Core int
	// Period is the monitor's polling interval in cycles.
	Period sim.Cycles
	// FlushRateThreshold: pages whose flush count grows faster than this
	// many flushes per Period are considered under probe attack.
	FlushRateThreshold uint64
	// InjectLoads is how many loads the monitor issues on a suspicious
	// line per period (two loads force S state).
	InjectLoads int
}

// DefaultMonitorConfig watches aggressively enough to break the default
// channel without drowning the machine in monitor traffic.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{
		Core:               3,
		Period:             4000,
		FlushRateThreshold: 1,
		InjectLoads:        2,
	}
}

// Monitor is defense #1: "add targeted noise to shared memory pages by
// having a monitor thread, that observes accesses to shared memory pages
// and dynamically issues additional loads. This method disrupts the
// covert timing channel by changing the coherence states (e.g., convert
// E to S) and alter spy's timing values."
type Monitor struct {
	cfg  MonitorConfig
	kern *kernel.Kernel
	proc *kernel.Process
	th   *kernel.Thread

	// watched maps line physical addresses to their last seen flush
	// epoch.
	watched map[uint64]uint64

	// Injections counts loads issued against suspicious lines.
	Injections int
}

// AttachMonitor starts the monitor over the given shared physical lines
// (the defense watches pages mapped into more than one process; passing
// the explicit line set keeps the simulation honest about what an OS
// could enumerate from reverse mappings).
func AttachMonitor(kern *kernel.Kernel, cfg MonitorConfig, lines []uint64) *Monitor {
	m := &Monitor{
		cfg:     cfg,
		kern:    kern,
		proc:    kern.NewProcess("cc-monitor"),
		watched: make(map[uint64]uint64),
	}
	for _, l := range lines {
		m.watched[l] = kern.Machine().FlushEpoch(l)
	}
	m.th = kern.Spawn(m.proc, cfg.Core, "monitor", func(kt *kernel.Thread) {
		m.run(kt)
	})
	return m
}

// run polls flush epochs and injects loads on hot lines. The monitor
// issues machine-level loads directly (it is OS/hypervisor code and may
// touch any physical line).
func (m *Monitor) run(kt *kernel.Thread) {
	mach := m.kern.Machine()
	for !kt.StopRequested() {
		kt.Advance(m.cfg.Period)
		for line, last := range m.watched {
			now := mach.FlushEpoch(line)
			if now-last >= m.cfg.FlushRateThreshold {
				for i := 0; i < m.cfg.InjectLoads; i++ {
					mach.Load(kt.Sim, m.cfg.Core+i%2, line)
					m.Injections++
				}
			}
			m.watched[line] = now
		}
	}
}

// Stop terminates the monitor thread.
func (m *Monitor) Stop() {
	m.kern.World().StopThread(m.th.Sim)
}

// KSMGuardConfig tunes the un-merge defense.
type KSMGuardConfig struct {
	// Period is the guard's scan interval.
	Period sim.Cycles
	// FlushBudget: a merged page whose lines accumulate more than this
	// many flushes between scans is split.
	FlushBudget uint64
}

// DefaultKSMGuardConfig splits pages probed faster than ~1 flush per
// 10k cycles.
func DefaultKSMGuardConfig() KSMGuardConfig {
	return KSMGuardConfig{Period: 50_000, FlushBudget: 5}
}

// KSMGuard is defense #2: "setup timeouts for KSM to un-merge shared
// pages with suspicious access pattern so that the trojan and spy
// communication can be disrupted dynamically."
type KSMGuard struct {
	cfg  KSMGuardConfig
	kern *kernel.Kernel
	th   *sim.Thread

	lastEpoch map[mem.Frame]uint64 // frame -> flush epoch of its first line

	// Splits counts pages un-merged by the guard.
	Splits int
}

// AttachKSMGuard starts the guard daemon.
func AttachKSMGuard(kern *kernel.Kernel, cfg KSMGuardConfig) *KSMGuard {
	g := &KSMGuard{cfg: cfg, kern: kern, lastEpoch: make(map[mem.Frame]uint64)}
	g.th = kern.World().Spawn("ksm-guard", func(t *sim.Thread) {
		for !t.StopRequested() {
			t.Advance(cfg.Period)
			g.scan()
		}
	})
	return g
}

// scan walks merged frames and splits the suspicious ones.
func (g *KSMGuard) scan() {
	mach := g.kern.Machine()
	for _, p := range g.kern.Processes() {
		for _, vp := range p.Pages() {
			frame := p.PTEOf(vp * kernel.PageSize).Frame
			if !g.kern.Memory().MergedByKSM(frame) {
				continue
			}
			// Sum flush activity over the frame's lines.
			var flushes uint64
			for off := uint64(0); off < kernel.PageSize; off += 64 {
				flushes += mach.FlushEpoch(frame.Base() + off)
			}
			last := g.lastEpoch[frame]
			g.lastEpoch[frame] = flushes
			if last != 0 && flushes-last > g.cfg.FlushBudget {
				if n := g.kern.KSM.UnmergePage(frame); n > 0 {
					g.Splits++
				}
			}
		}
	}
}

// Stop terminates the guard.
func (g *KSMGuard) Stop() { g.kern.World().StopThread(g.th) }

// HardwareFix returns cfg with defense #3 enabled: the LLC is notified
// of E->M upgrades and services clean-E misses directly, collapsing the
// E/S latency bands.
func HardwareFix(cfg machine.Config) machine.Config {
	cfg.Mitigations.LLCNotifiedOfEToM = true
	return cfg
}

// TimingObfuscator returns cfg with the location-hiding pad enabled:
// every off-core load costs the worst-case path, hiding local/remote.
func TimingObfuscator(cfg machine.Config) machine.Config {
	cfg.Mitigations.EqualizeSocketLatency = true
	return cfg
}

// FullHardwareDefense combines both hardware changes.
func FullHardwareDefense(cfg machine.Config) machine.Config {
	return TimingObfuscator(HardwareFix(cfg))
}

// AttackLines returns the line addresses of the page containing the
// session's shared block — what an OS monitor would enumerate for
// defense #1.
func AttackLines(s *covert.Session) []uint64 {
	base := s.SharedPA() &^ (kernel.PageSize - 1)
	lines := make([]uint64, 0, kernel.PageSize/64)
	for off := uint64(0); off < kernel.PageSize; off += 64 {
		lines = append(lines, base+off)
	}
	return lines
}
