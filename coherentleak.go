// Package coherentleak is a library reproduction of "Are Coherence
// Protocol States Vulnerable to Information Leakage?" (Yao, Doroslovački,
// Venkataramani — HPCA 2018).
//
// It bundles a deterministic cycle-level simulator of a dual-socket
// multi-core machine (private L1/L2 caches, inclusive shared LLCs with
// core-valid-bit directories, MESI/MESIF/MOESI coherence, QPI-style
// inter-socket links), an OS substrate with KSM page deduplication, and
// the paper's contribution on top: covert timing channels that modulate
// the (cache location, coherence state) of a shared read-only block.
//
// # Quick start
//
//	ch := coherentleak.NewChannel(coherentleak.Scenarios[0])
//	res, err := ch.Run(coherentleak.TextToBits("secret"))
//	// res.RxBits, res.Accuracy, res.RawKbps ...
//
// The package is a facade: it re-exports the stable surface of the
// internal packages so applications depend on one import. See DESIGN.md
// for the system inventory and EXPERIMENTS.md for the paper-vs-measured
// record.
package coherentleak

import (
	"coherentleak/internal/capacity"
	"coherentleak/internal/covert"
	"coherentleak/internal/ecc"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/mitigate"
	"coherentleak/internal/noise"
	"coherentleak/internal/replay"
	"coherentleak/internal/sim"
	"coherentleak/internal/stats"
	"coherentleak/internal/trace"
)

// Simulation kernel.
type (
	// World is the deterministic discrete-event simulation kernel.
	World = sim.World
	// Thread is a simulated hardware thread.
	Thread = sim.Thread
	// Cycles is a duration or instant in simulated CPU cycles.
	Cycles = sim.Cycles
	// WorldConfig parameterizes a World.
	WorldConfig = sim.Config
)

// NewWorld returns an empty simulation world.
func NewWorld(cfg WorldConfig) *World { return sim.NewWorld(cfg) }

// Machine layer.
type (
	// Machine is the simulated multi-socket testbed.
	Machine = machine.Machine
	// MachineConfig describes its topology, caches and latencies.
	MachineConfig = machine.Config
	// Latencies are the component service times.
	Latencies = machine.Latencies
	// Mitigations are the §VIII-E defensive hardware options.
	Mitigations = machine.Mitigations
	// Access is one timed memory operation's outcome.
	Access = machine.Access
	// Path identifies the service path of a load.
	Path = machine.Path
)

// Service paths (latency classes).
const (
	PathL1            = machine.PathL1
	PathL2            = machine.PathL2
	PathLocalLLC      = machine.PathLocalLLC
	PathLocalForward  = machine.PathLocalForward
	PathRemoteLLC     = machine.PathRemoteLLC
	PathRemoteForward = machine.PathRemoteForward
	PathDRAM          = machine.PathDRAM
)

// DefaultMachineConfig returns the paper's testbed: a 2-socket 12-core
// Xeon X5650 class machine at 2.67 GHz.
func DefaultMachineConfig() MachineConfig { return machine.DefaultConfig() }

// NewMachine builds a machine inside world.
func NewMachine(w *World, cfg MachineConfig) *Machine { return machine.New(w, cfg) }

// OS layer.
type (
	// Kernel is the OS substrate: processes, virtual memory, KSM.
	Kernel = kernel.Kernel
	// Process is a simulated OS process.
	Process = kernel.Process
	// OSThread is a process thread pinned to a core.
	OSThread = kernel.Thread
)

// NewKernel wraps a machine with the OS substrate; totalFrames bounds
// physical memory (0 = unbounded).
func NewKernel(m *Machine, totalFrames int) *Kernel { return kernel.New(m, totalFrames) }

// PageSize is the virtual/physical page size in bytes.
const PageSize = kernel.PageSize

// PagePatternInto fills buf with the deterministic pseudo-random pattern
// the trojan and spy agree on for KSM-based page sharing.
func PagePatternInto(seed uint64, buf []byte) { covert.PagePattern(seed, buf) }

// Covert channel (the paper's contribution).
type (
	// Channel is a configured binary covert timing channel.
	Channel = covert.Channel
	// Scenario is one Table I (communication, boundary) configuration.
	Scenario = covert.Scenario
	// Placement is a (location, coherence state) combination pair.
	Placement = covert.Placement
	// Params are the transmission knobs of Algorithms 1-2.
	Params = covert.Params
	// Result is a transmission outcome.
	Result = covert.Result
	// Sample is one timed load observed by the spy.
	Sample = covert.Sample
	// Bands is the spy's calibrated latency-band table.
	Bands = covert.Bands
	// Session is a constructed attack environment.
	Session = covert.Session
	// SharingMode selects KSM or explicit page sharing.
	SharingMode = covert.SharingMode
	// MultiBitChannel is the §VIII-D 2-bit-symbol channel.
	MultiBitChannel = covert.MultiBitChannel
	// MultiBitParams tune it.
	MultiBitParams = covert.MultiBitParams
	// MultiBitResult is its outcome.
	MultiBitResult = covert.MultiBitResult
	// ProbeMethod selects clflush or conflict-set eviction probing.
	ProbeMethod = covert.ProbeMethod
)

// Probe methods (§VI-B: "through clflush or an equivalent instruction,
// or through eviction of all the ways in the set").
const (
	// ProbeClflush is the flush-instruction probe.
	ProbeClflush = covert.ProbeClflush
	// ProbeEviction evicts B by traversing its LLC conflict set.
	ProbeEviction = covert.ProbeEviction
)

// Placements.
var (
	// LExcl is the local-socket Exclusive-state placement.
	LExcl = covert.LExcl
	// LShared is the local-socket Shared-state placement.
	LShared = covert.LShared
	// RExcl is the remote-socket Exclusive-state placement.
	RExcl = covert.RExcl
	// RShared is the remote-socket Shared-state placement.
	RShared = covert.RShared
)

// Sharing modes.
const (
	// ShareKSM creates the shared page implicitly via page deduplication.
	ShareKSM = covert.ShareKSM
	// ShareExplicit maps a read-only page into both processes directly.
	ShareExplicit = covert.ShareExplicit
)

// Scenarios are the six Table I attack configurations.
var Scenarios = covert.Scenarios

// ScenarioByName finds a scenario by its paper notation, e.g.
// "RExclc-LSharedb".
func ScenarioByName(name string) (Scenario, error) { return covert.ScenarioByName(name) }

// ScenarioNames lists the six names in Table I order.
func ScenarioNames() []string { return covert.ScenarioNames() }

// NewChannel returns a channel on the default testbed with reliable
// parameters and KSM sharing.
func NewChannel(sc Scenario) *Channel { return covert.NewChannel(sc) }

// NewMultiBitChannel returns the default-configured 2-bit channel.
func NewMultiBitChannel() *MultiBitChannel { return covert.NewMultiBitChannel() }

// DefaultParams returns the reliable binary operating point.
func DefaultParams() Params { return covert.DefaultParams() }

// DefaultMultiBitParams returns the reliable 2-bit-symbol operating point.
func DefaultMultiBitParams() MultiBitParams { return covert.DefaultMultiBitParams() }

// MultiBitParamsForRate solves the 2-bit channel's knobs for a target
// bit rate.
func MultiBitParamsForRate(cfg MachineConfig, targetKbps float64) MultiBitParams {
	return covert.MultiBitParamsForRate(cfg, targetKbps)
}

// ParamsForRate derives parameters aiming at targetKbps for a scenario.
func ParamsForRate(cfg MachineConfig, sc Scenario, targetKbps float64) Params {
	return covert.ParamsForRate(cfg, sc, targetKbps)
}

// Calibrate measures the latency bands the spy classifies against.
func Calibrate(cfg MachineConfig, seed uint64, samplesPerBand int, margin float64) (Bands, error) {
	return covert.Calibrate(cfg, seed, samplesPerBand, margin)
}

// NewSession builds an attack environment without running a transmission
// (for custom experiments).
func NewSession(cfg MachineConfig, worldSeed, patternSeed uint64, mode SharingMode) (*Session, error) {
	return covert.NewSession(cfg, worldSeed, patternSeed, mode)
}

// TextToBits expands a string to bits, MSB first.
func TextToBits(msg string) []byte { return covert.TextToBits(msg) }

// BitsToText packs bits (MSB first) into a string.
func BitsToText(bits []byte) string { return covert.BitsToText(bits) }

// Error handling (§VIII-C).
type (
	// ReliableProtocol is the parity + NACK retransmission scheme.
	ReliableProtocol = ecc.Protocol
	// ReliableResult reports a reliable transfer.
	ReliableResult = ecc.Result
	// FECProtocol is the Hamming(7,4)+interleaver forward-error-
	// correction alternative (no reverse channel).
	FECProtocol = ecc.FECProtocol
	// FECResult reports an FEC transfer.
	FECResult = ecc.FECResult
)

// NewReliableProtocol wraps a channel with packet parity and
// retransmission.
func NewReliableProtocol(ch Channel) *ReliableProtocol { return ecc.NewProtocol(ch) }

// NewFECProtocol wraps a channel with forward error correction.
func NewFECProtocol(ch Channel) *FECProtocol { return ecc.NewFECProtocol(ch) }

// Noise workload (§VIII-C).
type (
	// NoiseConfig tunes the kernel-build-like background workload.
	NoiseConfig = noise.Config
	// NoiseWorkload is a running set of noise threads.
	NoiseWorkload = noise.Workload
)

// DefaultNoiseConfig returns a kcbench-like intensity for n threads.
func DefaultNoiseConfig(threads int) NoiseConfig { return noise.DefaultConfig(threads) }

// AttachNoise spawns the workload's threads in kern.
func AttachNoise(kern *Kernel, cfg NoiseConfig) (*NoiseWorkload, error) {
	return noise.Attach(kern, cfg)
}

// CoLocationPressure returns the OS interruption rate attack threads
// suffer at a given noise thread count.
func CoLocationPressure(kern *Kernel, threads int) float64 {
	return noise.CoLocationPressure(kern, threads)
}

// Defenses (§VIII-E).
type (
	// Monitor is the targeted-noise-injection defense.
	Monitor = mitigate.Monitor
	// MonitorConfig tunes it.
	MonitorConfig = mitigate.MonitorConfig
	// KSMGuard un-merges suspiciously probed deduplicated pages.
	KSMGuard = mitigate.KSMGuard
	// KSMGuardConfig tunes it.
	KSMGuardConfig = mitigate.KSMGuardConfig
)

// AttachMonitor starts the monitor defense over the given physical lines.
func AttachMonitor(kern *Kernel, cfg MonitorConfig, lines []uint64) *Monitor {
	return mitigate.AttachMonitor(kern, cfg, lines)
}

// AttachKSMGuard starts the un-merge defense daemon.
func AttachKSMGuard(kern *Kernel, cfg KSMGuardConfig) *KSMGuard {
	return mitigate.AttachKSMGuard(kern, cfg)
}

// DefaultMonitorConfig returns the monitor defense's defaults.
func DefaultMonitorConfig() MonitorConfig { return mitigate.DefaultMonitorConfig() }

// DefaultKSMGuardConfig returns the KSM guard's defaults.
func DefaultKSMGuardConfig() KSMGuardConfig { return mitigate.DefaultKSMGuardConfig() }

// HardwareFix returns cfg with the E->M notification change enabled.
func HardwareFix(cfg MachineConfig) MachineConfig { return mitigate.HardwareFix(cfg) }

// TimingObfuscator returns cfg with socket-latency equalization enabled.
func TimingObfuscator(cfg MachineConfig) MachineConfig { return mitigate.TimingObfuscator(cfg) }

// FullHardwareDefense combines both hardware changes.
func FullHardwareDefense(cfg MachineConfig) MachineConfig {
	return mitigate.FullHardwareDefense(cfg)
}

// AttackLines returns the line addresses of a session's shared page (the
// monitor defense's watch list).
func AttackLines(s *Session) []uint64 { return mitigate.AttackLines(s) }

// Observability and analysis.
type (
	// TraceRecorder captures the machine's memory operations.
	TraceRecorder = trace.Recorder
	// TraceFilter selects which events are kept.
	TraceFilter = trace.Filter
	// AccessEvent is one recorded memory operation.
	AccessEvent = machine.AccessEvent
	// CapacityReport is the information-theoretic quality of a
	// transmission.
	CapacityReport = capacity.Report
	// TCSECClass is the Orange Book bandwidth category (§II).
	TCSECClass = capacity.TCSECClass
	// ReplayRecord is the versioned JSON archive of a transmission.
	ReplayRecord = replay.Record
)

// ArchiveResult converts a transmission result for JSON persistence.
func ArchiveResult(res *Result, includeSamples bool) *ReplayRecord {
	return replay.FromResult(res, includeSamples)
}

// AttachTrace records the most recent matching operations on a machine.
func AttachTrace(m *Machine, cap int, f TraceFilter) *TraceRecorder {
	return trace.Attach(m, cap, f)
}

// NewTraceFilter returns a match-all filter.
func NewTraceFilter() TraceFilter { return trace.NewFilter() }

// AnalyzeCapacity estimates a transmission's usable information rate and
// TCSEC class from its bits and raw rate.
func AnalyzeCapacity(want, got []byte, rawKbps float64) CapacityReport {
	return capacity.Analyze(want, got, rawKbps)
}

// Statistics helpers.
type (
	// Band is a calibrated latency interval.
	Band = stats.Band
	// CDFPoint is one point of an empirical CDF.
	CDFPoint = stats.CDFPoint
	// Summary describes a latency sample.
	Summary = stats.Summary
)

// Accuracy returns alignment-aware raw-bit accuracy between transmitted
// and received bit strings.
func Accuracy(want, got []byte) float64 { return stats.Accuracy(want, got) }
