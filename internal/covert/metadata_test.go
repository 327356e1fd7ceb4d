package covert

import (
	"testing"

	"coherentleak/internal/coherence"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

var metadataTestBits = []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1}

func TestDirtyStateChannelDecodes(t *testing.T) {
	ch := DirtyStateChannel{Config: machine.DefaultConfig(), WorldSeed: 42}
	res, err := ch.Run(metadataTestBits)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1 {
		t.Fatalf("dirty-state accuracy = %v under MESIF, want 1 (rx=%v)", res.Accuracy, res.RxBits)
	}
	// The latency bands must straddle FlushBase vs FlushBase+FlushDirty.
	lat := machine.DefaultLatencies()
	for i, s := range res.Samples {
		if res.RxBits[i] == 1 && s.Latency < lat.FlushBase+lat.FlushDirty/2 {
			t.Fatalf("slot %d decoded 1 at %d cycles", i, s.Latency)
		}
	}
}

// TestDirtyStateChannelDeadWithoutDirtyState pins the survival result:
// a write-through no-allocate protocol has no Modified state, so every
// flush is clean and the channel carries nothing.
func TestDirtyStateChannelDeadWithoutDirtyState(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Protocol = coherence.WTNA
	ch := DirtyStateChannel{Config: cfg, WorldSeed: 42}
	res, err := ch.Run(metadataTestBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.RxBits {
		if b != 0 {
			t.Fatalf("WT-NA produced a dirty flush: rx=%v", res.RxBits)
		}
	}
}

// TestDirtyStateSurvivesAllPolicies: the dirty bit rides on the line
// itself, not on replacement metadata, so the channel is policy-blind.
func TestDirtyStateSurvivesAllPolicies(t *testing.T) {
	for _, pol := range []string{"", "tree-plru", "srrip", "brrip"} {
		cfg := machine.DefaultConfig()
		cfg.Replacement = pol
		res, err := DirtyStateChannel{Config: cfg, WorldSeed: 42}.Run(metadataTestBits)
		if err != nil {
			t.Fatalf("%q: %v", pol, err)
		}
		if res.Accuracy != 1 {
			t.Fatalf("policy %q: dirty-state accuracy = %v, want 1", pol, res.Accuracy)
		}
	}
}

func TestLRUStateChannelDecodesUnderRecencyPolicies(t *testing.T) {
	for _, pol := range []string{"", "LRU", "tree-plru"} {
		cfg := machine.DefaultConfig()
		cfg.Replacement = pol
		res, err := LRUStateChannel{Config: cfg, WorldSeed: 42}.Run(metadataTestBits)
		if err != nil {
			t.Fatalf("%q: %v", pol, err)
		}
		if res.Accuracy != 1 {
			t.Fatalf("policy %q: lru-state accuracy = %v, want 1 (rx=%v)", pol, res.Accuracy, res.RxBits)
		}
	}
}

// TestLRUStateChannelDegradesUnderRRIP pins the policy-survival shape:
// SRRIP collapses the primed set to one re-reference class (victim
// degenerates to a way scan) and BRRIP's distant insertion keeps the spy
// from staging the set at all, so single-touch control of the victim is
// gone and accuracy falls to around chance.
func TestLRUStateChannelDegradesUnderRRIP(t *testing.T) {
	for _, pol := range []string{"srrip", "brrip"} {
		cfg := machine.DefaultConfig()
		cfg.Replacement = pol
		res, err := LRUStateChannel{Config: cfg, WorldSeed: 42}.Run(metadataTestBits)
		if err != nil {
			t.Fatalf("%q: %v", pol, err)
		}
		if res.Accuracy > 0.8 {
			t.Fatalf("policy %q: lru-state accuracy = %v, expected degradation below 0.8", pol, res.Accuracy)
		}
	}
}

// TestLRUStateTrojanPreservesPresence is the channel's defining
// property: the trojan's only monitored-set access is a load of a line
// that is already resident in the LLC — an LLC hit that moves recency
// metadata but never changes which lines are present for the spy.
func TestLRUStateTrojanPreservesPresence(t *testing.T) {
	// Run the same world twice, all-zeros vs the real pattern: if the
	// trojan changed presence rather than recency, the all-zeros run
	// would decode differently from all-zero slots of the real run. More
	// direct: in the real run every decoded 1 must come from a fast
	// (LLC-band) reload, i.e. B was present, never freshly refilled.
	res, err := LRUStateChannel{Config: machine.DefaultConfig(), WorldSeed: 7}.Run(metadataTestBits)
	if err != nil {
		t.Fatal(err)
	}
	lat := machine.DefaultLatencies()
	llcBound := lat.MissBase + 2*lat.Ring + lat.LLCService + lat.ForwardLocal + sim.Cycles(lat.Jitter)
	for i, s := range res.Samples {
		if res.RxBits[i] == 1 && s.Latency > llcBound {
			t.Fatalf("slot %d: decoded 1 from a %d-cycle reload (beyond LLC band %d)", i, s.Latency, llcBound)
		}
	}
}

func TestLRUStateRequiresInclusiveLLC(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.InclusiveLLC = false
	if _, err := (LRUStateChannel{Config: cfg, WorldSeed: 1}.Run(metadataTestBits)); err == nil {
		t.Fatal("non-inclusive LLC accepted")
	}
}

// TestSlottedChannelsDeterministic: identical (config, seed, bits) runs
// must produce identical samples — the property the harness's cell cache
// and fleet byte-identity rest on.
func TestSlottedChannelsDeterministic(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Replacement = "tree-plru"
	run := func() []Sample {
		lr, err := LRUStateChannel{Config: cfg, WorldSeed: 99}.Run(metadataTestBits)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := DirtyStateChannel{Config: cfg, WorldSeed: 99}.Run(metadataTestBits)
		if err != nil {
			t.Fatal(err)
		}
		return append(lr.Samples, dr.Samples...)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("sample counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
