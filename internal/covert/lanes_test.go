package covert

import (
	"reflect"
	"testing"
)

// The multi-lane ("parallel") binary channel: Channel.Lanes stripes the
// payload over several lines of the shared page.

func lanesChannel(sc Scenario, lanes int) *Channel {
	ch := NewChannel(sc)
	ch.Lanes = lanes
	return ch
}

// Lanes 0 and 1 both mean the paper's single line and run identically.
func TestParallelChannelOneLaneMatchesBinary(t *testing.T) {
	bits := PatternBitsForTest(51, 40)
	one, err := lanesChannel(Scenarios[0], 1).Run(bits)
	if err != nil {
		t.Fatal(err)
	}
	if one.Accuracy != 1 {
		t.Fatalf("1-lane accuracy = %v", one.Accuracy)
	}
	zero, err := NewChannel(Scenarios[0]).Run(bits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, zero) {
		t.Fatal("Lanes 1 and Lanes 0 runs differ")
	}
	if len(one.PerLane) != 1 || !reflect.DeepEqual(one.PerLane[0], one.RxBits) {
		t.Fatalf("single-lane PerLane = %v, want [RxBits]", one.PerLane)
	}
}

func TestParallelChannelFourLanes(t *testing.T) {
	bits := PatternBitsForTest(53, 120)
	res, err := lanesChannel(Scenarios[0], 4).Run(bits)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Synced {
		t.Fatal("no sync")
	}
	if res.Accuracy != 1 {
		t.Fatalf("4-lane accuracy = %v (rx %d/%d bits)", res.Accuracy, len(res.RxBits), len(res.TxBits))
	}
	if len(res.PerLane) != 4 {
		t.Fatalf("lanes = %d", len(res.PerLane))
	}
}

// The point of lanes: more payload per period. Four lanes must beat one
// lane's raw rate on the same payload.
func TestParallelLanesRaiseRate(t *testing.T) {
	bits := PatternBitsForTest(55, 120)
	rate := func(lanes int) float64 {
		res, err := lanesChannel(Scenarios[0], lanes).Run(bits)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accuracy < 0.99 {
			t.Fatalf("%d lanes: accuracy %v", lanes, res.Accuracy)
		}
		return res.RawKbps
	}
	one, four := rate(1), rate(4)
	if four <= one*1.5 {
		t.Fatalf("4 lanes %.0f Kbps vs 1 lane %.0f Kbps: speedup under 1.5x", four, one)
	}
	t.Logf("1 lane %.0f Kbps, 4 lanes %.0f Kbps (%.2fx)", one, four, four/one)
}

func TestParallelChannelRejectsBadConfig(t *testing.T) {
	if _, err := lanesChannel(Scenarios[0], -1).Run([]byte{1}); err == nil {
		t.Fatal("-1 lanes accepted")
	}
	if _, err := lanesChannel(Scenarios[0], 17).Run([]byte{1}); err == nil {
		t.Fatal("17 lanes accepted (page holds 64 lines but LLC-set aliasing caps at 16)")
	}
	ch := lanesChannel(Scenarios[0], 2)
	ch.Params.Probe = ProbeEviction
	if _, err := ch.Run([]byte{1, 0}); err == nil {
		t.Fatal("eviction probing accepted for parallel lanes")
	}
}

func TestParallelChannelRemoteScenario(t *testing.T) {
	bits := PatternBitsForTest(57, 80)
	res, err := lanesChannel(Scenarios[3], 4).Run(bits) // RExclc-LSharedb
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1 {
		t.Fatalf("remote 4-lane accuracy = %v", res.Accuracy)
	}
}

func TestParallelDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := lanesChannel(Scenarios[0], 3).Run(PatternBitsForTest(59, 60))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.Accuracy != b.Accuracy {
		t.Fatal("parallel runs diverged")
	}
}
