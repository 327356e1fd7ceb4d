package covert

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coherentleak/internal/coherence"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from the current run")

// goldenRun is the part of a transmission the channel golden pins.
// Fields a run does not report stay nil and are printed as "-".
type goldenRun struct {
	tx, rx     []byte
	perLane    [][]byte
	samples    []Sample
	classes    []string // per-sample classification; nil = Sample.Class
	syncCycles *sim.Cycles
	duration   sim.Cycles
	rawKbps    float64
}

func bitString(bits []byte) string {
	var b strings.Builder
	for _, x := range bits {
		b.WriteByte('0' + x)
	}
	return b.String()
}

func (g goldenRun) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tx %s\nrx %s\n", bitString(g.tx), bitString(g.rx))
	for i, lane := range g.perLane {
		fmt.Fprintf(&b, "lane%d %s\n", i, bitString(lane))
	}
	sync := "-"
	if g.syncCycles != nil {
		sync = fmt.Sprint(*g.syncCycles)
	}
	fmt.Fprintf(&b, "sync_cycles %s\nduration %d\nraw_kbps %.6f\n", sync, g.duration, g.rawKbps)
	for i, s := range g.samples {
		class := s.Class.String()
		if g.classes != nil {
			class = g.classes[i]
		}
		fmt.Fprintf(&b, "%d\t%d\t%d\t%s\n", i, s.Cycle, s.Latency, class)
	}
	return b.String()
}

func binaryGolden(res *Result) goldenRun {
	return goldenRun{
		tx: res.TxBits, rx: res.RxBits, samples: res.Samples,
		syncCycles: &res.SyncCycles, duration: res.Duration, rawKbps: res.RawKbps,
	}
}

// channelGoldenRuns drives the self-synchronised channels through the
// paths no artifact TSV reaches: eviction probing over an explicitly
// shared page, four lanes, OS preemption noise, and the 2-bit channel
// at a rate-solved operating point.
func channelGoldenRuns(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	section := func(name string, g goldenRun) {
		fmt.Fprintf(&out, "## %s\n%s", name, g)
	}

	ev := NewChannel(Scenarios[0])
	ev.Mode = ShareExplicit
	ev.Params.Probe = ProbeEviction
	res, err := ev.Run(PatternBitsForTest(61, 24))
	if err != nil {
		t.Fatal(err)
	}
	section("eviction-explicit", binaryGolden(res))

	lanes := NewChannel(Scenarios[0])
	lanes.Lanes = 4
	lres, err := lanes.Run(PatternBitsForTest(63, 50))
	if err != nil {
		t.Fatal(err)
	}
	section("lanes-4", goldenRun{
		tx: lres.TxBits, rx: lres.RxBits, perLane: lres.PerLane,
		duration: lres.Duration, rawKbps: lres.RawKbps,
	})

	noisy := NewChannel(Scenarios[0])
	noisy.PreRun = func(s *Session) {
		s.OSNoiseProb = 0.3
		s.OSNoiseCycles = 1500
	}
	res, err = noisy.Run(PatternBitsForTest(65, 40))
	if err != nil {
		t.Fatal(err)
	}
	section("os-noise", binaryGolden(res))

	mb := NewMultiBitChannel()
	mb.Params = MultiBitParamsForRate(machine.DefaultConfig(), 1400)
	mres, err := mb.Run(PatternBitsForTest(67, 24))
	if err != nil {
		t.Fatal(err)
	}
	classes := make([]string, len(mres.SymbolTrace))
	for i, sym := range mres.SymbolTrace {
		classes[i] = fmt.Sprint(sym)
	}
	section("multibit-1400", goldenRun{
		tx: mres.TxBits, rx: mres.RxBits, samples: mres.Samples, classes: classes,
		duration: mres.Duration, rawKbps: mres.RawKbps,
	})
	return out.String()
}

// TestChannelGolden pins every bit, sample and timing of the runs above.
// Run with -update-golden only after an intentional change to the
// channels' observable behaviour.
func TestChannelGolden(t *testing.T) {
	checkGolden(t, "channels.golden", channelGoldenRuns(t))
}

// TestSlotsGolden pins every slot's (tx, rx, latency), the accuracy and
// the rate of the slotted channels on machines no artifact reaches:
// lrustate on a 2-core-per-socket MOESI tree-PLRU machine (the slot
// driver must not inherit NewSession's 3-core floor) and dirtystate on a
// 1-socket, 2-core MESI machine.
func TestSlotsGolden(t *testing.T) {
	var out strings.Builder
	section := func(name string, res *Transmission) {
		fmt.Fprintf(&out, "## %s\naccuracy %.6f\nraw_kbps %.6f\n", name, res.Accuracy, res.RawKbps)
		for i, s := range res.Samples {
			fmt.Fprintf(&out, "%d\t%d\t%d\t%d\n", i, res.TxBits[i], res.RxBits[i], s.Latency)
		}
	}
	lru := machine.DefaultConfig()
	lru.CoresPerSocket = 2
	lru.Protocol = coherence.MOESI
	lru.Replacement = "tree-plru"
	res, err := LRUStateChannel{Config: lru, WorldSeed: 73}.Run(PatternBitsForTest(71, 32))
	if err != nil {
		t.Fatal(err)
	}
	section("lrustate-2core-moesi-tree-plru", res)
	dirty := machine.DefaultConfig()
	dirty.Sockets, dirty.CoresPerSocket = 1, 2
	dirty.Protocol = coherence.MESI
	if res, err = (DirtyStateChannel{Config: dirty, WorldSeed: 75}.Run(PatternBitsForTest(77, 32))); err != nil {
		t.Fatal(err)
	}
	section("dirtystate-1socket-2core-mesi", res)
	checkGolden(t, "slots.golden", out.String())
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update-golden): %v", err)
	}
	if got != string(want) {
		g, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(wl); i++ {
			if g[i] != wl[i] {
				t.Fatalf("%s diverges at line %d: got %q, want %q", name, i+1, g[i], wl[i])
			}
		}
		t.Fatalf("run has %d lines, %s %d", len(g), name, len(wl))
	}
}
