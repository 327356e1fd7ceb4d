package covert

import (
	"fmt"
	"sort"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// ProbeMethod selects the spy's invalidation primitive.
type ProbeMethod uint8

const (
	// ProbeClflush uses the clflush-equivalent instruction.
	ProbeClflush ProbeMethod = iota
	// ProbeEviction loads a conflict set covering all the ways of B's
	// LLC set.
	ProbeEviction
)

func (p ProbeMethod) String() string {
	if p == ProbeEviction {
		return "eviction"
	}
	return "clflush"
}

// Params tune a transmission (the knobs of Algorithms 1 and 2 and the
// two bandwidth knobs of §VIII-B).
type Params struct {
	// C1, C0 are how many consecutive spy periods the block sits in the
	// communication placement for a '1' and a '0' respectively.
	C1, C0 int
	// Cb is how many periods the block sits in the boundary placement
	// between bits.
	Cb int
	// Ts is the spy's wait between its flush and its timed load — knob 2
	// of §VIII-B. Smaller Ts = faster sampling = higher rate = noisier.
	Ts sim.Cycles
	// SyncPeriods is the length of the trojan's pre-transmission
	// boundary preamble the spy locks onto (§VII-A).
	SyncPeriods int
	// EndRun is N of Algorithm 2: reception ends after this many
	// consecutive samples outside both bands.
	EndRun int
	// Probe selects how the spy invalidates B each period: clflush (the
	// default) or eviction of all the ways in B's LLC set (§VI-B's
	// alternative for environments without a flush instruction).
	// Eviction probing is restricted to local scenarios on an inclusive
	// LLC: the spy's conflict set only reaches its own socket's LLC, and
	// only inclusion turns an LLC eviction into a global invalidation of
	// the socket's private copies.
	Probe ProbeMethod
	// MinRun is the decoder's noise filter: communication runs shorter
	// than this many samples are treated as misclassified noise rather
	// than bits. It must not exceed C0 or legitimate '0' runs would be
	// dropped. 1 disables filtering.
	MinRun int
}

// BandMargin is how many cycles a channel's own calibration widens each
// band by on either side. Both channels classify by the nearest band
// centre, so the margin moves only the reported Lo and Hi.
const BandMargin = 4

// maxPeriods aborts a runaway reception: the spy gives up polling for
// the preamble, or stops recording, after this many periods.
const maxPeriods = 2_000_000

// DefaultParams returns a conservative mid-rate configuration
// (roughly the paper's reliable operating point).
func DefaultParams() Params {
	return Params{
		C1:          4,
		C0:          1,
		Cb:          2,
		Ts:          900,
		SyncPeriods: 20,
		EndRun:      10,
		MinRun:      1,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.C1 <= 0 || p.C0 <= 0 || p.Cb <= 0 {
		return fmt.Errorf("covert: counts must be positive: C1=%d C0=%d Cb=%d", p.C1, p.C0, p.Cb)
	}
	if p.C1 <= p.C0 {
		return fmt.Errorf("covert: C1 (%d) must exceed C0 (%d) for the threshold to work", p.C1, p.C0)
	}
	if p.Ts == 0 {
		return fmt.Errorf("covert: zero sampling interval")
	}
	if p.SyncPeriods < 2 {
		return fmt.Errorf("covert: SyncPeriods %d too small to lock on", p.SyncPeriods)
	}
	if p.EndRun < 2 {
		return fmt.Errorf("covert: EndRun %d would end reception on a single noisy sample", p.EndRun)
	}
	if p.MinRun < 1 || p.MinRun > p.C0 {
		return fmt.Errorf("covert: MinRun %d must be in [1, C0=%d]", p.MinRun, p.C0)
	}
	return nil
}

// Threshold is Thold of Algorithm 2: a communication run longer than this
// decodes as '1'. The midpoint of C1 and C0 tolerates one period of drift
// either way.
func (p Params) Threshold() float64 { return (float64(p.C1) + float64(p.C0)) / 2 }

// PeriodsPerBit is the average number of spy periods per transmitted bit
// assuming balanced bits.
func (p Params) PeriodsPerBit() float64 {
	return float64(p.Cb) + (float64(p.C1)+float64(p.C0))/2
}

// EstimatePeriodCycles predicts one spy period's length for a scenario:
// flush + wait + timed load at the communication band's typical latency.
func (p Params) EstimatePeriodCycles(cfg machine.Config, s Scenario) float64 {
	lat := cfg.Latencies
	load := float64(placementBaseLatency(cfg, s.Comm)+placementBaseLatency(cfg, s.Bound)) / 2
	return float64(lat.FlushBase) + float64(p.Ts) + load
}

// EstimateKbps predicts the raw bit rate for a scenario under cfg.
func (p Params) EstimateKbps(cfg machine.Config, s Scenario) float64 {
	period := p.EstimatePeriodCycles(cfg, s)
	cyclesPerBit := period * p.PeriodsPerBit()
	return cfg.ClockHz / cyclesPerBit / 1e3
}

// placementBaseLatency returns the uncontended spy-load latency of a
// placement under cfg.
func placementBaseLatency(cfg machine.Config, pl Placement) sim.Cycles {
	lat := cfg.Latencies
	base := lat.MissBase + 2*lat.Ring + lat.LLCService
	switch pl {
	case LShared:
		return base
	case LExcl:
		return base + lat.ForwardLocal
	case RShared:
		return base + 2*lat.QPI
	case RExcl:
		return base + 2*lat.QPI + lat.ForwardRemote
	}
	return base
}

// ParamsForRate derives a parameter set aiming at targetKbps for scenario
// s on cfg, holding the count structure fixed and solving for Ts; when Ts
// would fall below the feasible floor (the spy's own flush+load time),
// the counts are squeezed as well. This implements the §VIII-B sweep:
// "reduce the number of consecutive caching operations ... and reduce the
// interval between loads".
func ParamsForRate(cfg machine.Config, s Scenario, targetKbps float64) Params {
	p := DefaultParams()
	if targetKbps <= 0 {
		return p
	}
	overhead := Params{}.EstimatePeriodCycles(cfg, s) // per period, excluding Ts

	solve := func(periodsPerBit float64) (sim.Cycles, bool) {
		cyclesPerBit := cfg.ClockHz / (targetKbps * 1e3)
		period := cyclesPerBit / periodsPerBit
		ts := period - overhead
		if ts < 64 {
			return 0, false
		}
		return sim.Cycles(ts), true
	}

	// Prefer the robust count structure; shrink counts only when the
	// target rate cannot be met otherwise.
	structures := []struct{ c1, c0, cb int }{
		{4, 1, 2},
		{3, 1, 2},
		{3, 1, 1},
		{2, 1, 1},
	}
	for _, st := range structures {
		p.C1, p.C0, p.Cb = st.c1, st.c0, st.cb
		if ts, ok := solve(p.PeriodsPerBit()); ok {
			p.Ts = ts
			return p
		}
	}
	// Fastest structure at the floor interval.
	p.Ts = 64
	return p
}

// RankScenarios orders the Table I scenarios by predicted robustness
// (band-center separation under cfg), best first.
func RankScenarios(cfg machine.Config) []ScenarioRank {
	out := make([]ScenarioRank, 0, len(Scenarios))
	for _, sc := range Scenarios {
		a := float64(placementBaseLatency(cfg, sc.Comm))
		b := float64(placementBaseLatency(cfg, sc.Bound))
		sep := a - b
		if sep < 0 {
			sep = -sep
		}
		out = append(out, ScenarioRank{Scenario: sc, Separation: sep})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Separation != out[j].Separation {
			return out[i].Separation > out[j].Separation
		}
		return out[i].Scenario.Name() < out[j].Scenario.Name()
	})
	return out
}
