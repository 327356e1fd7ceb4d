package mitigate

import (
	"testing"

	"coherentleak/internal/covert"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

const testBits = 60

func attackBits() []byte {
	bits := make([]byte, testBits)
	x := uint64(0xabcdef)
	for i := range bits {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		bits[i] = byte(x & 1)
	}
	return bits
}

func baselineAccuracy(t *testing.T) float64 {
	t.Helper()
	ch := covert.NewChannel(covert.Scenarios[0])
	res, err := ch.Run(attackBits())
	if err != nil {
		t.Fatal(err)
	}
	return res.Accuracy
}

func TestBaselineChannelWorks(t *testing.T) {
	if acc := baselineAccuracy(t); acc != 1 {
		t.Fatalf("undefended channel accuracy = %v, want 1", acc)
	}
}

// Defense #1: the monitor thread's injected loads must wreck the channel.
func TestMonitorBreaksChannel(t *testing.T) {
	var mon *Monitor
	ch := covert.NewChannel(covert.Scenarios[0])
	ch.PreRun = func(s *covert.Session) {
		mon = AttachMonitor(s.Kern, DefaultMonitorConfig(), AttackLines(s))
	}
	res, err := ch.Run(attackBits())
	if err != nil {
		t.Fatal(err)
	}
	if mon.Injections == 0 {
		t.Fatal("monitor never injected a load")
	}
	// Note: edit-distance accuracy between two random binary strings
	// floors around 0.7, so <= 0.8 already means the decode is garbage.
	if res.Accuracy > 0.8 {
		t.Fatalf("monitored channel accuracy = %v, want heavily degraded", res.Accuracy)
	}
}

// TestMonitorInjectsInLineOrder: when two watched lines cross the
// threshold in the same period, the monitor's loads hit them in the
// order the lines were given, whatever order they were flushed in.
func TestMonitorInjectsInLineOrder(t *testing.T) {
	mach := machine.New(sim.NewWorld(sim.Config{Seed: 1}), machine.DefaultConfig())
	k := kernel.New(mach, 0)
	proc := k.NewProcess("prober")
	va := proc.MustMmap(1)
	pa, err := proc.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	var lines []uint64
	for off := uint64(0); off < kernel.PageSize; off += 64 {
		lines = append(lines, pa+off)
	}
	cfg := DefaultMonitorConfig()
	mon := AttachMonitor(k, cfg, lines)
	const periods = 40
	k.Spawn(proc, 0, "prober", func(kt *kernel.Thread) {
		for i := 0; i < periods; i++ {
			kt.Flush(va + 40*64)
			kt.Flush(va + 3*64)
			kt.Advance(cfg.Period)
		}
	})
	var got []uint64
	mach.SetAccessObserver(func(e machine.AccessEvent) {
		if e.Thread == mon.th.Sim.ID() && e.Op == "load" {
			got = append(got, e.Line)
		}
	})
	w := k.World()
	if err := w.RunUntilDeadline(periods*cfg.Period, nil); err != nil {
		t.Fatal(err)
	}
	mon.Stop()
	per := 2 * cfg.InjectLoads
	if len(got) < periods/2*per {
		t.Fatalf("%d monitor loads over %d periods", len(got), periods)
	}
	for i, line := range got {
		want := lines[3]
		if i%per >= cfg.InjectLoads {
			want = lines[40]
		}
		if line != want {
			t.Fatalf("monitor load %d hit line %#x, want %#x (lines in AttackLines order)", i, line, want)
		}
	}
}

// The monitor must also break the E-vs-S signal in every other scenario.
func TestMonitorBreaksAllScenarios(t *testing.T) {
	for _, sc := range covert.Scenarios {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			ch := covert.NewChannel(sc)
			ch.PreRun = func(s *covert.Session) {
				AttachMonitor(s.Kern, DefaultMonitorConfig(), AttackLines(s))
			}
			res, err := ch.Run(attackBits())
			if err != nil {
				t.Fatal(err)
			}
			if res.Accuracy > 0.85 {
				t.Errorf("accuracy %v under monitor", res.Accuracy)
			}
		})
	}
}

// Defense #2: the KSM guard un-merges the probed page; the spy then
// times its own private copy and the channel dies entirely.
func TestKSMGuardBreaksChannel(t *testing.T) {
	var guard *KSMGuard
	var sess *covert.Session
	ch := covert.NewChannel(covert.Scenarios[0])
	ch.Mode = covert.ShareKSM
	ch.PreRun = func(s *covert.Session) {
		sess = s
		guard = AttachKSMGuard(s.Kern, DefaultKSMGuardConfig())
	}
	res, err := ch.Run(attackBits())
	if err != nil {
		t.Fatal(err)
	}
	if guard.Splits == 0 {
		t.Fatal("guard never split a page")
	}
	if sess.TrojanProc.SharesFrameWith(sess.TrojanVA, sess.SpyProc, sess.SpyVA) {
		t.Fatal("shared frame survived the guard")
	}
	if res.Accuracy > 0.8 {
		t.Fatalf("guarded channel accuracy = %v", res.Accuracy)
	}
}

// The guard must not split pages under normal (slow) access patterns.
func TestKSMGuardLeavesQuietPagesAlone(t *testing.T) {
	var guard *KSMGuard
	ch := covert.NewChannel(covert.Scenarios[0])
	ch.Mode = covert.ShareKSM
	// Slow the probing below the guard's suspicion threshold by using a
	// long sampling interval.
	p := covert.DefaultParams()
	p.Ts = 60_000
	ch.Params = p
	ch.PreRun = func(s *covert.Session) {
		guard = AttachKSMGuard(s.Kern, DefaultKSMGuardConfig())
	}
	res, err := ch.Run(attackBits()[:6])
	if err != nil {
		t.Fatal(err)
	}
	if guard.Splits != 0 {
		t.Fatalf("guard split %d quiet pages", guard.Splits)
	}
	if res.Accuracy != 1 {
		t.Fatalf("slow channel accuracy = %v", res.Accuracy)
	}
}

// Defense #3a: with E->M notification the LLC answers clean-E misses
// directly, so E and S bands collapse and every E-based scenario dies.
func TestHardwareFixCollapsesEBands(t *testing.T) {
	cfg := HardwareFix(machine.DefaultConfig())
	for _, name := range []string{"LExclc-LSharedb", "RExclc-RSharedb"} {
		sc, err := covert.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ch := covert.NewChannel(sc)
		ch.Config = cfg
		res, err := ch.Run(attackBits())
		if err != nil {
			t.Fatal(err)
		}
		if res.Accuracy > 0.8 {
			t.Errorf("%s survives the hardware fix: accuracy %v", name, res.Accuracy)
		}
	}
}

// The E->M fix alone does NOT stop location-based scenarios (e.g. remote
// shared vs local shared) — the paper pairs it with the timing
// obfuscator for that reason.
func TestHardwareFixAloneLeavesLocationSignal(t *testing.T) {
	cfg := HardwareFix(machine.DefaultConfig())
	sc, _ := covert.ScenarioByName("RSharedc-LSharedb")
	ch := covert.NewChannel(sc)
	ch.Config = cfg
	res, err := ch.Run(attackBits())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.95 {
		t.Fatalf("location-only scenario should survive E->M fix, accuracy %v", res.Accuracy)
	}
}

// Defense #3b: the full hardware defense (E->M notification + latency
// equalization) kills every scenario.
func TestFullHardwareDefenseKillsEverything(t *testing.T) {
	cfg := FullHardwareDefense(machine.DefaultConfig())
	for _, sc := range covert.Scenarios {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			ch := covert.NewChannel(sc)
			ch.Config = cfg
			res, err := ch.Run(attackBits())
			if err != nil {
				t.Fatal(err)
			}
			if res.Accuracy > 0.8 {
				t.Errorf("accuracy %v under full hardware defense", res.Accuracy)
			}
		})
	}
}

func TestMultiBitDiesUnderFullDefense(t *testing.T) {
	ch := covert.NewMultiBitChannel()
	ch.Config = FullHardwareDefense(machine.DefaultConfig())
	res, err := ch.Run(attackBits()[:40])
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy > 0.8 {
		t.Fatalf("multibit accuracy %v under full defense", res.Accuracy)
	}
}
