package experiments

import (
	"strings"

	"coherentleak/internal/cache"
	"coherentleak/internal/capacity"
	"coherentleak/internal/coherence"
	"coherentleak/internal/covert"
	"coherentleak/internal/machine"
)

// MatrixPoint is one (protocol, policy, channel) cell of the survival
// matrix: the channel's measured operating point under that protocol and
// replacement policy, or — for dead cells — the reason the channel could
// not be established.
type MatrixPoint struct {
	Protocol string
	Policy   string
	Channel  string
	RawKbps  float64
	Accuracy float64
	InfoKbps float64
	Survives bool
	Note     string
}

// matrixSurvival is the raw-bit accuracy above which a channel counts as
// surviving a protocol: well below the live channels' operating
// accuracies (>97%), well above what a partially collapsed band
// structure produces (a 2-bit channel reduced to two distinguishable
// levels tops out near 75%).
const matrixSurvival = 0.9

// matrixChannel is one channel the matrix probes. run transmits
// payloadBits bits on cfg; an error means the channel could not be
// established there.
type matrixChannel struct {
	name string
	// perPolicy channels are probed once per registered replacement
	// policy; the others run under the plan's base policy.
	perPolicy bool
	run       func(cfg machine.Config, payloadBits int, seed uint64) (*covert.Transmission, error)
}

// matrixChannels is the matrix's channel table, in row order:
// binary-state is the paper's coherence-state channel proper (local E vs
// local S — same socket, only the state differs), binary-socket the
// robust cross-socket pair (remote E vs local S, which also leaks
// location), and multibit the 2-bit-symbol channel that needs all four
// latency bands at once. The metadata channels follow: lrustate leaks
// through replacement metadata (so its survival is a property of the
// policy), dirtystate through the dirty bit (so its survival is a
// property of the protocol — it dies only without a dirty state).
var matrixChannels = []matrixChannel{
	{name: "binary-state", run: binaryMatrixRun(covert.Scenarios[0])},  // LExclc-LSharedb: only the state differs
	{name: "binary-socket", run: binaryMatrixRun(covert.Scenarios[3])}, // RExclc-LSharedb: the robust pair
	{name: "multibit", run: func(cfg machine.Config, payloadBits int, seed uint64) (*covert.Transmission, error) {
		res, err := Fig11MultiBit(cfg, payloadBits, seed)
		if err != nil {
			return nil, err
		}
		return &res.Transmission, nil
	}},
	{name: "lrustate", perPolicy: true, run: func(cfg machine.Config, payloadBits int, seed uint64) (*covert.Transmission, error) {
		return covert.LRUStateChannel{Config: cfg, WorldSeed: seed + 31}.Run(PatternBits(seed^0xFACE, payloadBits))
	}},
	{name: "dirtystate", perPolicy: true, run: func(cfg machine.Config, payloadBits int, seed uint64) (*covert.Transmission, error) {
		return covert.DirtyStateChannel{Config: cfg, WorldSeed: seed + 31}.Run(PatternBits(seed^0xFACE, payloadBits))
	}},
}

// binaryMatrixRun probes the binary channel on scenario sc over an
// explicitly shared page, calibrating first.
func binaryMatrixRun(sc covert.Scenario) func(machine.Config, int, uint64) (*covert.Transmission, error) {
	return func(cfg machine.Config, payloadBits int, seed uint64) (*covert.Transmission, error) {
		bands, err := calibrate(cfg, seed)
		if err != nil {
			return nil, err
		}
		ch := covert.Channel{
			Config:      cfg,
			Scenario:    sc,
			Params:      covert.DefaultParams(),
			Mode:        covert.ShareExplicit,
			WorldSeed:   seed + 31,
			PatternSeed: seed,
			Bands:       &bands,
		}
		res, err := ch.Run(PatternBits(seed^0xFACE, payloadBits))
		if err != nil {
			return nil, err
		}
		return &res.Transmission, nil
	}
}

// matrixCell measures one (protocol, channel) pair of the matrix.
// Channel establishment failures — calibration unable to find distinct
// latency bands, which is exactly what a leak-free protocol like WT-NA
// produces — are data, not errors: they come back as a dead row with the
// reason in Note. Only genuinely unknown inputs return an error.
func matrixCell(base machine.Config, proto coherence.Protocol, ch matrixChannel, payloadBits int, seed uint64) (MatrixPoint, error) {
	spec, err := coherence.SpecFor(proto)
	if err != nil {
		return MatrixPoint{}, err
	}
	pol, err := cache.PolicyFor(base.Replacement)
	if err != nil {
		return MatrixPoint{}, err
	}
	cfg := base
	cfg.Protocol = coherence.Protocol(spec.Name())
	pt := MatrixPoint{Protocol: spec.Name(), Policy: pol.String(), Channel: ch.name, Note: "-"}
	tx, err := ch.run(cfg, payloadBits, seed)
	if err != nil {
		pt.Note = strings.NewReplacer("\t", " ", "\n", " ").Replace(err.Error())
		return pt, nil
	}
	pt.RawKbps, pt.Accuracy = tx.RawKbps, tx.Accuracy
	pt.InfoKbps = capacity.Analyze(tx.TxBits, tx.RxBits, tx.RawKbps).InfoKbps
	pt.Survives = pt.Accuracy >= matrixSurvival
	return pt, nil
}

// MatrixRow measures every channel for one protocol: each channel in
// table order, the per-policy ones once per registered replacement
// policy, making the row a policy × channel surface. Channel k's cells
// are seeded seed + protoIndex*101 + k*7 (+ q*1009 for policy q), so the
// classic channels keep the seeds of the original protocol × channel
// matrix and their numbers are stable.
func MatrixRow(base machine.Config, proto coherence.Protocol, protoIndex, payloadBits int, seed uint64) ([]MatrixPoint, error) {
	pols := cache.Policies()
	var out []MatrixPoint
	for k, ch := range matrixChannels {
		chSeed := seed + uint64(protoIndex)*101 + uint64(k)*7
		if !ch.perPolicy {
			pt, err := matrixCell(base, proto, ch, payloadBits, chSeed)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
			continue
		}
		for q, info := range pols {
			cfg := base
			cfg.Replacement = info.Name
			pt, err := matrixCell(cfg, proto, ch, payloadBits, chSeed+uint64(q)*1009)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}
