package covert

import (
	"fmt"
	"math"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// SymbolMap is the §VIII-D encoding: each 2-bit value maps to one of the
// four (location, coherence state) combination pairs, so every
// transmitted symbol carries two bits.
var SymbolMap = [4]Placement{
	0: LShared, // 00
	1: LExcl,   // 01
	2: RShared, // 10
	3: RExcl,   // 11
}

// symbolOf returns the symbol index whose placement is pl.
func symbolOf(pl Placement) (int, bool) {
	for i, p := range SymbolMap {
		if p == pl {
			return i, true
		}
	}
	return 0, false
}

// MultiBitParams tune the 2-bit-symbol channel.
type MultiBitParams struct {
	// Cs is how many spy periods each symbol's placement is held.
	Cs int
	// Gap is how many idle periods separate symbols (the spy sees its
	// own miss-to-DRAM latency, delimiting symbol runs).
	Gap int
	// Ts is the spy sampling interval, as in the binary channel.
	Ts sim.Cycles
	// SyncPeriods is the preamble length (held in RExcl, the most
	// distinctive band).
	SyncPeriods int
	// EndRun ends reception after this many idle periods — it must
	// exceed Gap or the inter-symbol gaps terminate reception.
	EndRun int
}

// DefaultMultiBitParams returns the reliable §VIII-D operating point.
func DefaultMultiBitParams() MultiBitParams {
	return MultiBitParams{
		Cs:          3,
		Gap:         2,
		Ts:          750,
		SyncPeriods: 20,
		EndRun:      8,
	}
}

// Validate checks the parameters.
func (p MultiBitParams) Validate() error {
	if p.Cs <= 0 || p.Gap <= 0 {
		return fmt.Errorf("covert: multibit Cs/Gap must be positive")
	}
	if p.EndRun <= p.Gap {
		return fmt.Errorf("covert: EndRun (%d) must exceed Gap (%d) or symbol gaps end reception", p.EndRun, p.Gap)
	}
	if p.Ts == 0 {
		return fmt.Errorf("covert: zero sampling interval")
	}
	if p.SyncPeriods <= p.Cs+1 {
		return fmt.Errorf("covert: preamble must be longer than a symbol run")
	}
	return nil
}

// PeriodsPerSymbol returns the period cost of one 2-bit symbol.
func (p MultiBitParams) PeriodsPerSymbol() float64 { return float64(p.Cs + p.Gap) }

// EstimateKbps predicts the raw bit rate of the 2-bit channel.
func (p MultiBitParams) EstimateKbps(cfg machine.Config) float64 {
	return cfg.ClockHz / (p.periodCycles(cfg) * p.PeriodsPerSymbol() / 2) / 1e3
}

// periodCycles predicts one spy period: flush + wait + a timed load at
// the mean latency of the four bands.
func (p MultiBitParams) periodCycles(cfg machine.Config) float64 {
	var sum sim.Cycles
	for _, pl := range AllPlacements {
		sum += placementBaseLatency(cfg, pl)
	}
	return float64(cfg.Latencies.FlushBase) + float64(p.Ts) + float64(sum)/4
}

// MultiBitParamsForRate solves for Ts given a target bit rate.
func MultiBitParamsForRate(cfg machine.Config, targetKbps float64) MultiBitParams {
	p := DefaultMultiBitParams()
	if targetKbps <= 0 {
		return p
	}
	overhead := MultiBitParams{}.periodCycles(cfg) // per period, excluding Ts
	for _, st := range []struct{ cs, gap int }{{3, 2}, {2, 1}, {1, 1}} {
		p.Cs, p.Gap = st.cs, st.gap
		cyclesPerSymbol := cfg.ClockHz / (targetKbps * 1e3) * 2
		ts := cyclesPerSymbol/p.PeriodsPerSymbol() - overhead
		if ts >= 64 {
			p.Ts = sim.Cycles(ts)
			return p
		}
	}
	p.Ts = 64
	return p
}

// buildSymbolSchedule compiles the symbol stream: an RExcl preamble, then
// per symbol Cs periods of its placement, each run followed by Gap idle
// periods (the first gap separates preamble and data).
func buildSymbolSchedule(p MultiBitParams, symbols []int) schedule {
	s := schedule{}.hold(RExcl, p.SyncPeriods).pause(p.Gap)
	for _, sym := range symbols {
		s = s.hold(SymbolMap[sym], p.Cs).pause(p.Gap)
	}
	return s
}

// MultiBitChannel is the §VIII-D 2-bit-symbol channel.
type MultiBitChannel struct {
	Config                 machine.Config
	Params                 MultiBitParams
	Mode                   SharingMode
	WorldSeed, PatternSeed uint64
	Bands                  *Bands
	PreRun                 func(*Session)
}

// NewMultiBitChannel returns the default-configured 2-bit channel.
func NewMultiBitChannel() *MultiBitChannel {
	return &MultiBitChannel{
		Config:      machine.DefaultConfig(),
		Params:      DefaultMultiBitParams(),
		Mode:        ShareKSM,
		WorldSeed:   1,
		PatternSeed: 0xc0fe,
	}
}

// MultiBitResult is the outcome of a 2-bit-symbol transmission.
type MultiBitResult struct {
	Transmission
	TxSymbols   []int
	RxSymbols   []int
	SymbolTrace []int // classified symbol per sample, -1 = idle
	Duration    sim.Cycles
	Synced      bool
}

// Run transmits bits two per symbol. Odd-length inputs are rejected.
func (c *MultiBitChannel) Run(bits []byte) (*MultiBitResult, error) {
	if len(bits)%2 != 0 {
		return nil, fmt.Errorf("covert: multibit payload must have even length, got %d", len(bits))
	}
	if err := c.Params.Validate(); err != nil {
		return nil, err
	}
	if c.Config.Sockets < 2 {
		return nil, fmt.Errorf("covert: the 2-bit channel needs both sockets (4 bands)")
	}
	symbols := make([]int, len(bits)/2)
	for i := range symbols {
		symbols[i] = int(bits[2*i])<<1 | int(bits[2*i+1])
	}

	var rxSymbols []int
	rec, err := transmit(setup{
		cfg: c.Config, mode: c.Mode, worldSeed: c.WorldSeed, patternSeed: c.PatternSeed,
		bands: c.Bands, preRun: c.PreRun,
	}, bits, func(_ *Session, bands Bands) (*codec, error) {
		sched := buildSymbolSchedule(c.Params, symbols)
		rexcl, _ := symbolOf(RExcl)
		return &codec{
			lanes: []schedule{sched},
			// All four workers always run: every placement is in use.
			local: 2, remote: 2,
			ts:       c.Params.Ts,
			endRun:   c.Params.EndRun,
			classify: func(lat sim.Cycles) int { return classifySymbol(bands, lat) },
			start:    func(sym int) bool { return sym == rexcl },
			idle:     func(sym int) bool { return sym == -1 },
			decode: func(r *reception) []byte {
				rxSymbols = decodeSymbolRuns(r.syms[0])
				var rx []byte
				for _, s := range rxSymbols {
					rx = append(rx, byte(s>>1)&1, byte(s)&1)
				}
				return rx
			},
			deadline: multiBitDeadline(sched),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &MultiBitResult{
		Transmission: rec.Transmission,
		TxSymbols:    symbols,
		RxSymbols:    rxSymbols,
		SymbolTrace:  rec.syms[0],
		Duration:     rec.duration,
		Synced:       rec.synced,
	}, nil
}

// multiBitDeadline bounds a 2-bit-symbol run: 3000 cycles for every
// scheduled period plus a hundredth of maxPeriods, and 100M cycles more.
func multiBitDeadline(sched schedule) sim.Cycles {
	return sim.Cycles(float64(len(sched)+maxPeriods/100)*3000) + 100_000_000
}

// classifySymbol returns the symbol index of the placement band nearest
// to lat, or -1 (idle) when the DRAM band is nearest.
func classifySymbol(bands Bands, lat sim.Cycles) int {
	x := float64(lat)
	best, bestDist := -1, math.Abs(x-bands.DRAM.Center)
	for i, pl := range SymbolMap {
		if d := math.Abs(x - bands.ByPlacement[pl].Center); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// decodeSymbolRuns converts the per-sample symbol trace into symbols: a
// maximal run of non-idle samples is one symbol (majority vote over the
// run), and the first run (the preamble) is discarded.
func decodeSymbolRuns(trace []int) []int {
	var runs []int
	i := 0
	for i < len(trace) {
		for i < len(trace) && trace[i] == -1 {
			i++
		}
		if i >= len(trace) {
			break
		}
		votes := map[int]int{}
		for i < len(trace) && trace[i] != -1 {
			votes[trace[i]]++
			i++
		}
		best, bestN := 0, -1
		for sym, n := range votes {
			if n > bestN || (n == bestN && sym < best) {
				best, bestN = sym, n
			}
		}
		runs = append(runs, best)
	}
	if len(runs) > 0 {
		runs = runs[1:] // drop the preamble run
	}
	return runs
}
