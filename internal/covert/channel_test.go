package covert

import (
	"strings"
	"testing"
	"testing/quick"

	"coherentleak/internal/machine"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := DefaultParams()
	bad.C1 = 0
	if bad.Validate() == nil {
		t.Error("zero C1 accepted")
	}
	bad = DefaultParams()
	bad.C0 = bad.C1
	if bad.Validate() == nil {
		t.Error("C1 == C0 accepted")
	}
	bad = DefaultParams()
	bad.Ts = 0
	if bad.Validate() == nil {
		t.Error("zero Ts accepted")
	}
	bad = DefaultParams()
	bad.SyncPeriods = 1
	if bad.Validate() == nil {
		t.Error("tiny preamble accepted")
	}
	bad = DefaultParams()
	bad.EndRun = 1
	if bad.Validate() == nil {
		t.Error("EndRun 1 accepted")
	}
}

func TestThresholdBetweenCounts(t *testing.T) {
	p := DefaultParams()
	if th := p.Threshold(); th <= float64(p.C0) || th >= float64(p.C1) {
		t.Fatalf("threshold %v not strictly between C0=%d and C1=%d", th, p.C0, p.C1)
	}
}

func TestParamsForRateMonotone(t *testing.T) {
	cfg := machine.DefaultConfig()
	sc := Scenarios[0]
	prevTs := sim_CyclesMax
	for _, rate := range []float64{100, 300, 500, 700, 900} {
		p := ParamsForRate(cfg, sc, rate)
		if err := p.Validate(); err != nil {
			t.Fatalf("rate %v -> invalid params: %v", rate, err)
		}
		// Higher targets must not slow the sampling clock.
		if p.Ts > prevTs {
			t.Fatalf("Ts grew with rate: %d at %v", p.Ts, rate)
		}
		prevTs = p.Ts
		est := p.EstimateKbps(cfg, sc)
		if est < rate*0.8 || est > rate*1.2 {
			t.Errorf("rate %v: estimate %v off by >20%%", rate, est)
		}
	}
}

const sim_CyclesMax = ^uint64(0)

func TestBuildSchedule(t *testing.T) {
	p := DefaultParams()
	sc := Scenarios[0]
	bits := []byte{1, 0}
	s := buildSchedule(sc, p, bits)
	want := p.SyncPeriods + p.Cb + p.C1 + p.Cb + p.C0 + p.Cb
	if len(s) != want {
		t.Fatalf("schedule periods = %d, want %d", len(s), want)
	}
	// Preamble is boundary placement.
	pl, live := s.at(0)
	if !live || pl != sc.Bound {
		t.Fatal("schedule does not start with boundary preamble")
	}
	// First communication run starts right after preamble+Cb.
	pl, _ = s.at(uint64(p.SyncPeriods + p.Cb))
	if pl != sc.Comm {
		t.Fatal("first bit's communication phase misplaced")
	}
	// Past the end: idle.
	if _, live := s.at(uint64(want)); live {
		t.Fatal("schedule live past its end")
	}
}

// Property: the schedule length matches the algebraic period count for
// any bit string.
func TestSchedulePeriodsProperty(t *testing.T) {
	p := DefaultParams()
	sc := Scenarios[3]
	f := func(raw []bool) bool {
		bits := make([]byte, len(raw))
		ones := 0
		for i, b := range raw {
			if b {
				bits[i] = 1
				ones++
			}
		}
		s := buildSchedule(sc, p, bits)
		want := p.SyncPeriods + (len(bits)+1)*p.Cb + ones*p.C1 + (len(bits)-ones)*p.C0
		return len(s) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateCleanRuns(t *testing.T) {
	p := DefaultParams() // C1=4, C0=1, Cb=2, threshold 2.5
	mk := func(classes ...Class) []Sample {
		out := make([]Sample, len(classes))
		for i, c := range classes {
			out[i] = Sample{Class: c}
		}
		return out
	}
	B, C, X := ClassBound, ClassComm, ClassOther
	// sync(3B) 1(4C) B B 0(1C) B B 1(4C) end
	samples := mk(B, B, B, C, C, C, C, B, B, C, B, B, C, C, C, C, X, X)
	bits := translate(samples, p)
	want := []byte{1, 0, 1}
	if len(bits) != len(want) {
		t.Fatalf("bits = %v, want %v", bits, want)
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bits = %v, want %v", bits, want)
		}
	}
}

func TestTranslateIgnoresIsolatedNoise(t *testing.T) {
	p := DefaultParams()
	B, C, X := ClassBound, ClassComm, ClassOther
	mk := func(classes ...Class) []Sample {
		out := make([]Sample, len(classes))
		for i, c := range classes {
			out[i] = Sample{Class: c}
		}
		return out
	}
	// A '1' run split by an isolated X must still decode as one '1'.
	samples := mk(B, B, C, C, X, C, C, B, B)
	bits := translate(samples, p)
	if len(bits) != 1 || bits[0] != 1 {
		t.Fatalf("bits = %v, want [1]", bits)
	}
}

func TestTranslateEmpty(t *testing.T) {
	if bits := translate(nil, DefaultParams()); len(bits) != 0 {
		t.Fatalf("translate(nil) = %v", bits)
	}
}

// Every channel rejects a payload bit other than 0 and 1 instead of
// transmitting it as something else and scoring the damage as channel
// error, and reports a copy of the payload it sent: TxBits never shares
// the caller's backing array.
func TestChannelsRejectNonBinaryBits(t *testing.T) {
	cfg := machine.DefaultConfig()
	lanes := NewChannel(Scenarios[0])
	lanes.Lanes = 4
	binary := func(ch *Channel) func([]byte) (*Transmission, error) {
		return func(b []byte) (*Transmission, error) {
			res, err := ch.Run(b)
			if err != nil {
				return nil, err
			}
			return &res.Transmission, nil
		}
	}
	for _, tc := range []struct {
		name string
		run  func([]byte) (*Transmission, error)
	}{
		{"binary", binary(NewChannel(Scenarios[0]))},
		{"lanes", binary(lanes)},
		{"multibit", func(b []byte) (*Transmission, error) {
			res, err := NewMultiBitChannel().Run(b)
			if err != nil {
				return nil, err
			}
			return &res.Transmission, nil
		}},
		{"lrustate", LRUStateChannel{Config: cfg}.Run},
		{"dirtystate", DirtyStateChannel{Config: cfg}.Run},
	} {
		_, err := tc.run([]byte{0, 2})
		if err == nil || !strings.Contains(err.Error(), "non-binary") {
			t.Errorf("%s: payload {0, 2} gave err = %v, want a non-binary rejection", tc.name, err)
		}
		bits := []byte{1, 0, 1, 1}
		tx, err := tc.run(bits)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if &tx.TxBits[0] == &bits[0] {
			t.Errorf("%s: TxBits aliases the caller's payload", tc.name)
		}
	}
}

func TestChannelRejectsBadInput(t *testing.T) {
	ch := NewChannel(Scenarios[0])
	if _, err := ch.Run([]byte{0, 1, 2}); err == nil {
		t.Fatal("non-binary payload accepted")
	}
	bad := NewChannel(Scenario{Comm: LExcl, Bound: LExcl})
	if _, err := bad.Run([]byte{1}); err == nil {
		t.Fatal("degenerate scenario accepted")
	}
	p := DefaultParams()
	p.Ts = 0
	chBad := NewChannel(Scenarios[0])
	chBad.Params = p
	if _, err := chBad.Run([]byte{1}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestChannelSingleSocketRejectsRemote(t *testing.T) {
	ch := NewChannel(Scenarios[1]) // RExclc-RSharedb
	ch.Config.Sockets = 1
	if _, err := ch.Run([]byte{1, 0}); err == nil {
		t.Fatal("remote scenario on 1-socket machine accepted")
	}
}

// Every Table I scenario must transmit a 40-bit pattern perfectly at the
// default (reliable) operating point — the Figure 7 claim: "the spy is
// able to correctly decipher the transmitted bits for all 6 attack
// scenarios with 100% accuracy".
func TestAllScenariosPerfectAtDefaultRate(t *testing.T) {
	bits := PatternBitsForTest(0x5eed, 40)
	for _, sc := range Scenarios {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			ch := NewChannel(sc)
			res, err := ch.Run(bits)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Synced {
				t.Fatal("no sync")
			}
			if res.Accuracy != 1 {
				t.Fatalf("accuracy = %v (tx=%v rx=%v)", res.Accuracy, bits, res.RxBits)
			}
			if res.RawKbps < 100 {
				t.Errorf("raw rate = %v Kbps, implausibly low", res.RawKbps)
			}
		})
	}
}

// The explicit-sharing mode must work identically to KSM mode.
func TestExplicitSharingMode(t *testing.T) {
	ch := NewChannel(Scenarios[0])
	ch.Mode = ShareExplicit
	res, err := ch.Run([]byte{1, 1, 0, 1, 0, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1 {
		t.Fatalf("explicit mode accuracy = %v", res.Accuracy)
	}
}

func TestChannelDeterminism(t *testing.T) {
	run := func() *Result {
		ch := NewChannel(Scenarios[2])
		res, err := ch.Run([]byte{1, 0, 0, 1, 1, 0, 1, 0, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i].Latency != b.Samples[i].Latency {
			t.Fatalf("latency stream diverged at %d", i)
		}
	}
	if a.Duration != b.Duration {
		t.Fatal("durations differ")
	}
}

func TestRunText(t *testing.T) {
	ch := NewChannel(Scenarios[0])
	res, got, err := ch.RunText("Hi")
	if err != nil {
		t.Fatal(err)
	}
	if got != "Hi" {
		t.Fatalf("decoded %q, want \"Hi\" (accuracy %v)", got, res.Accuracy)
	}
}

func TestTextBitsRoundTrip(t *testing.T) {
	f := func(s string) bool {
		return BitsToText(TextToBits(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitErrors(t *testing.T) {
	r := &Result{Transmission: Transmission{TxBits: []byte{1, 0, 1}, RxBits: []byte{1, 1, 1}}}
	if r.BitErrors() != 1 {
		t.Fatalf("BitErrors = %d", r.BitErrors())
	}
	r = &Result{Transmission: Transmission{TxBits: []byte{1, 0}, RxBits: []byte{1, 0, 1}}}
	if r.BitErrors() != 1 {
		t.Fatalf("length mismatch BitErrors = %d", r.BitErrors())
	}
}

// Sync handshake duration: the paper reports ~90 ms on average for the
// full trojan-spy synchronization (§VII-A). Our preamble-based handshake
// completes much faster (no OS scheduling delays in the simulator), but
// it must be nonzero and well under the paper's bound.
func TestSyncLatency(t *testing.T) {
	ch := NewChannel(Scenarios[0])
	res, err := ch.Run([]byte{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	secs := ch.Config.CyclesToSeconds(res.SyncCycles)
	if secs <= 0 || secs > 0.09 {
		t.Fatalf("sync = %v s, want (0, 0.09]", secs)
	}
}

// PatternBitsForTest mirrors experiments.PatternBits without the import
// cycle.
func PatternBitsForTest(seed uint64, n int) []byte {
	bits := make([]byte, n)
	x := seed
	for i := range bits {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		bits[i] = byte(x & 1)
	}
	return bits
}
