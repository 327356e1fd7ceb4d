package covert

import (
	"fmt"
	"math"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
	"coherentleak/internal/stats"
)

// Channel is a configured covert timing channel between a trojan and a
// spy on one simulated machine. The zero value is not usable; populate
// Config/Scenario/Params (or use NewChannel for defaults).
type Channel struct {
	// Config is the machine to attack.
	Config machine.Config
	// Scenario selects the Table I configuration.
	Scenario Scenario
	// Params are the transmission knobs.
	Params Params
	// Lanes is how many cache lines of the shared page carry the
	// protocol side by side (0 or 1 = the paper's single line B, at most
	// 16). The payload is striped round-robin across the lanes; the spy
	// probes every lane each period, so its period grows with Lanes and
	// rates do not scale perfectly linearly. This is a bandwidth
	// extension beyond the paper (§VIII-D closes with "more
	// sophisticated symbol encoding mechanisms may achieve even higher
	// transmission rates"). Eviction probing needs a single lane.
	Lanes int
	// Mode selects KSM or explicit page sharing.
	Mode SharingMode
	// WorldSeed and PatternSeed pin the run's determinism.
	WorldSeed, PatternSeed uint64
	// Bands overrides calibration when non-nil (e.g. reuse across runs).
	Bands *Bands
	// PreRun, when non-nil, is invoked on the constructed session before
	// the trojan and spy start — the hook the noise workloads and the
	// defenses attach through.
	PreRun func(*Session)
}

// NewChannel returns a channel with the paper's testbed machine, default
// parameters and KSM sharing.
func NewChannel(sc Scenario) *Channel {
	return &Channel{
		Config:      machine.DefaultConfig(),
		Scenario:    sc,
		Params:      DefaultParams(),
		Mode:        ShareKSM,
		WorldSeed:   1,
		PatternSeed: 0xc0fe,
	}
}

// Result is the outcome of one transmission. With several lanes,
// Samples holds lane 0's trace.
type Result struct {
	Transmission
	Scenario Scenario
	Params   Params

	// PerLane holds each lane's decoded bits (one entry per lane).
	PerLane [][]byte
	// Synced reports whether the spy locked on at all.
	Synced bool
	// SyncCycles is the synchronization handshake cost (§VII-A's ~90 ms).
	SyncCycles sim.Cycles
	// Duration is the reception window in cycles.
	Duration sim.Cycles
	// AttemptedKbps is the rate the parameters aimed for.
	AttemptedKbps float64
	// Bands is the calibration the spy used.
	Bands Bands
}

// BitErrors returns the number of mismatched positions (counting length
// differences).
func (r *Result) BitErrors() int {
	n := len(r.TxBits)
	if len(r.RxBits) > n {
		n = len(r.RxBits)
	}
	errs := 0
	for i := 0; i < n; i++ {
		var a, b byte = 2, 3
		if i < len(r.TxBits) {
			a = r.TxBits[i]
		}
		if i < len(r.RxBits) {
			b = r.RxBits[i]
		}
		if a != b {
			errs++
		}
	}
	return errs
}

// Run transmits bits (values 0/1) from the trojan to the spy and returns
// the reception outcome.
func (c *Channel) Run(bits []byte) (*Result, error) {
	lanes := max(c.Lanes, 1)
	if c.Lanes < 0 || c.Lanes > 16 {
		return nil, fmt.Errorf("covert: lanes must be 0..16, got %d", c.Lanes)
	}
	if !c.Scenario.Valid() {
		return nil, fmt.Errorf("covert: scenario %v uses one placement for both roles", c.Scenario)
	}
	if err := c.Params.Validate(); err != nil {
		return nil, err
	}
	if c.Params.Probe == ProbeEviction {
		if lanes > 1 {
			return nil, fmt.Errorf("covert: parallel lanes share an LLC set region; eviction probing needs one lane")
		}
		if c.Scenario.Comm.Loc != Local || c.Scenario.Bound.Loc != Local {
			return nil, fmt.Errorf("covert: eviction probing reaches only the spy's socket; scenario %s uses remote placements", c.Scenario.Name())
		}
		if !c.Config.InclusiveLLC {
			return nil, fmt.Errorf("covert: eviction probing needs an inclusive LLC to invalidate private copies")
		}
	}

	perLane := make([][]byte, lanes)
	rec, err := transmit(setup{
		cfg: c.Config, mode: c.Mode, worldSeed: c.WorldSeed, patternSeed: c.PatternSeed,
		sc: c.Scenario, bands: c.Bands, preRun: c.PreRun,
	}, bits, func(sess *Session, bands Bands) (*codec, error) {
		cd := binaryCodec(c.Scenario, c.Params, bands, stripe(bits, lanes))
		cd.decode = func(r *reception) []byte {
			for lane, smps := range r.samples {
				perLane[lane] = translate(smps, c.Params)
			}
			return unstripe(perLane, len(bits))
		}
		if c.Params.Probe == ProbeEviction {
			set, err := sess.BuildSpyEvictionSet()
			if err != nil {
				return nil, err
			}
			cd.evictionSet = set
		}
		cd.deadline = c.deadline(cd.lanes)
		return cd, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Transmission:  rec.Transmission,
		Scenario:      c.Scenario,
		Params:        c.Params,
		PerLane:       perLane,
		Synced:        rec.synced,
		SyncCycles:    rec.syncCycles,
		Duration:      rec.duration,
		AttemptedKbps: c.Params.EstimateKbps(c.Config, c.Scenario),
		Bands:         rec.bands,
	}, nil
}

// binaryCodec is the alphabet of Algorithms 1-2 on one schedule per
// lane: the spy syncs on the boundary band, ends on out-of-band samples
// and keeps its sync sample; Table I sets the trojan's worker counts.
// The caller adds the decoder, the deadline and any eviction set.
func binaryCodec(sc Scenario, p Params, bands Bands, laneBits [][]byte) *codec {
	cd := &codec{
		ts:       p.Ts,
		endRun:   p.EndRun,
		keepSync: true,
		labelled: true,
		classify: func(lat sim.Cycles) int { return int(bands.Classify(sc, lat)) },
		start:    func(cls int) bool { return Class(cls) == ClassBound },
		idle:     func(cls int) bool { return Class(cls) == ClassOther },
	}
	cd.local, cd.remote = sc.TrojanThreads()
	for _, lb := range laneBits {
		cd.lanes = append(cd.lanes, buildSchedule(sc, p, lb))
	}
	return cd
}

// deadline bounds the run at a generous 50x the expected transmission
// length (the spy's period grows with the lane count).
func (c *Channel) deadline(lanes []schedule) sim.Cycles {
	periods := 0
	for _, s := range lanes {
		periods = max(periods, len(s))
	}
	est := c.Params.EstimatePeriodCycles(c.Config, c.Scenario)
	if len(lanes) == 1 {
		return sim.Cycles(est*float64(periods)*50) + 50_000_000
	}
	est *= float64(len(lanes))
	return sim.Cycles(est*float64(periods)*50) + 100_000_000
}

// stripe deals the payload round-robin onto lanes: lane i carries bits
// i, i+k, i+2k, ..., and with several lanes every lane is padded with
// zeros to the same bit count.
func stripe(bits []byte, lanes int) [][]byte {
	if lanes == 1 {
		return [][]byte{bits}
	}
	out := make([][]byte, lanes)
	for i, b := range bits {
		out[i%lanes] = append(out[i%lanes], b)
	}
	for i := range out {
		for len(out[i]) < len(out[0]) {
			out[i] = append(out[i], 0)
		}
	}
	return out
}

// unstripe reassembles n payload bits from the lanes' decoded bits: bit j
// is lane j%k's bit j/k when decoded. A single lane's decode is the
// payload as is, extra or missing bits included.
func unstripe(perLane [][]byte, n int) []byte {
	if len(perLane) == 1 {
		return perLane[0]
	}
	var out []byte
	for j := 0; j < n; j++ {
		lane, idx := j%len(perLane), j/len(perLane)
		if idx < len(perLane[lane]) {
			out = append(out, perLane[lane][idx])
		}
	}
	return out
}

// RunText transmits a UTF-8 string MSB-first and returns the result plus
// the decoded text (best-effort: decoding truncates to whole bytes).
func (c *Channel) RunText(msg string) (*Result, string, error) {
	res, err := c.Run(TextToBits(msg))
	if err != nil {
		return nil, "", err
	}
	return res, BitsToText(res.RxBits), nil
}

// TextToBits expands a string to bits, MSB first.
func TextToBits(msg string) []byte {
	out := make([]byte, 0, 8*len(msg))
	for _, b := range []byte(msg) {
		for i := 7; i >= 0; i-- {
			out = append(out, (b>>uint(i))&1)
		}
	}
	return out
}

// BitsToText packs bits (MSB first) into a string, dropping a trailing
// partial byte.
func BitsToText(bits []byte) string {
	n := len(bits) / 8
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		var v byte
		for j := 0; j < 8; j++ {
			v = v<<1 | bits[i*8+j]&1
		}
		out[i] = v
	}
	return string(out)
}

// Class is the spy's classification of one timed load.
type Class uint8

const (
	// ClassComm: latency inside Tc, the communication band.
	ClassComm Class = iota
	// ClassBound: latency inside Tb, the boundary band.
	ClassBound
	// ClassOther: outside both bands (missed reload, noise, end of
	// transmission).
	ClassOther
)

func (c Class) String() string {
	switch c {
	case ClassComm:
		return "C"
	case ClassBound:
		return "B"
	default:
		return "X"
	}
}

// Bands is the spy's calibrated view of the latency structure
// (Tc and Tb of Algorithms 1-2, plus everything needed for multi-bit
// decoding and Figure 2).
type Bands struct {
	// ByPlacement maps each combination pair to its calibrated band.
	ByPlacement map[Placement]stats.Band
	// DRAM is the no-copy-anywhere band (the spy's own miss latency).
	DRAM stats.Band
}

// Classify buckets a latency by maximum likelihood: the nearest of the
// communication band center, the boundary band center, and the DRAM
// (missed-reload) center wins. With three known latency populations this
// is the optimal decision rule for the spy, and it makes misclassification
// probability fall with band separation — the §VIII-B observation that
// widely separated pairs (RExclc-LExclb, RExclc-LSharedb) stay accurate
// at rates where narrow pairs have already degraded.
func (b Bands) Classify(sc Scenario, lat sim.Cycles) Class {
	x := float64(lat)
	dc := math.Abs(x - b.ByPlacement[sc.Comm].Center)
	db := math.Abs(x - b.ByPlacement[sc.Bound].Center)
	dx := math.Abs(x - b.DRAM.Center)
	switch {
	case dc <= db && dc <= dx:
		return ClassComm
	case db <= dx:
		return ClassBound
	default:
		return ClassOther
	}
}

// buildSchedule compiles Algorithm 1's loop for a bit string: a boundary
// preamble of SyncPeriods (the §VII-A synchronization), then for every
// bit Cb boundary periods followed by C1 or C0 communication periods.
func buildSchedule(sc Scenario, p Params, bits []byte) schedule {
	s := schedule{}.hold(sc.Bound, p.SyncPeriods)
	for _, b := range bits {
		s = s.hold(sc.Bound, p.Cb)
		if b != 0 {
			s = s.hold(sc.Comm, p.C1)
		} else {
			s = s.hold(sc.Comm, p.C0)
		}
	}
	// A closing boundary delimits the final bit before the idle tail.
	return s.hold(sc.Bound, p.Cb)
}

// translate converts the reception trace into bits: strip out-of-band
// samples (isolated noise must not split a run), then run-length decode
// alternating boundary/communication runs; each communication run longer
// than Thold is a '1', otherwise a '0' (Algorithm 2's count[] loop).
func translate(samples []Sample, p Params) []byte {
	var classes []Class
	for _, smp := range samples {
		if smp.Class != ClassOther {
			classes = append(classes, smp.Class)
		}
	}
	var bits []byte
	thold := p.Threshold()
	minRun := p.MinRun
	if minRun < 1 {
		minRun = 1
	}
	i := 0
	for {
		// Skip the boundary run (and the sync preamble on the first
		// iteration).
		for i < len(classes) && classes[i] == ClassBound {
			i++
		}
		if i >= len(classes) {
			break
		}
		run := 0
		for i < len(classes) && classes[i] == ClassComm {
			run++
			i++
		}
		if run < minRun {
			// Too short to be a deliberate placement: a stray
			// misclassified sample inside a boundary stretch.
			continue
		}
		if float64(run) > thold {
			bits = append(bits, 1)
		} else {
			bits = append(bits, 0)
		}
	}
	return bits
}
