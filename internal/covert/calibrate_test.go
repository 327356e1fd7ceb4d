package covert

import (
	"testing"

	"coherentleak/internal/machine"
	"coherentleak/internal/stats"
)

func TestCalibrateBandsDistinct(t *testing.T) {
	cfg := machine.DefaultConfig()
	b, err := Calibrate(cfg, 99, 200, BandMargin)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Distinct(); err != nil {
		t.Fatalf("calibrated bands overlap: %v", err)
	}
	if len(b.ByPlacement) != 4 {
		t.Fatalf("placement bands = %d, want 4", len(b.ByPlacement))
	}
}

// §V's headline numbers: ~124 cycles for a local E block, ~98 for local S.
func TestCalibrationMatchesPaperNumbers(t *testing.T) {
	cfg := machine.DefaultConfig()
	b, err := Calibrate(cfg, 7, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		pl   Placement
		want float64
		tol  float64
	}{
		{LShared, 98, 8},
		{LExcl, 124, 8},
		{RShared, 186, 10},
		{RExcl, 242, 10},
	}
	for _, c := range checks {
		got := b.ByPlacement[c.pl].Center
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%v center = %.1f, want %.0f±%.0f", c.pl, got, c.want, c.tol)
		}
	}
	if b.DRAM.Center < 320 || b.DRAM.Center > 370 {
		t.Errorf("DRAM center = %.1f", b.DRAM.Center)
	}
}

// Figure 2's structure: the four bands are ordered
// localS < localE < remoteS < remoteE and each is narrow.
func TestBandOrderingAndWidth(t *testing.T) {
	cfg := machine.DefaultConfig()
	b, err := Calibrate(cfg, 3, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	order := []Placement{LShared, LExcl, RShared, RExcl}
	for i := 0; i+1 < len(order); i++ {
		lo, hi := b.ByPlacement[order[i]], b.ByPlacement[order[i+1]]
		if lo.Hi >= hi.Lo {
			t.Errorf("band %v [%.0f..%.0f] not below %v [%.0f..%.0f]",
				order[i], lo.Lo, lo.Hi, order[i+1], hi.Lo, hi.Hi)
		}
	}
	for pl, band := range b.ByPlacement {
		if w := band.Hi - band.Lo; w > 40 {
			t.Errorf("%v band too wide: %.0f cycles", pl, w)
		}
	}
}

func TestCalibrateSingleSocket(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Sockets = 1
	b, err := Calibrate(cfg, 5, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.ByPlacement) != 2 {
		t.Fatalf("1-socket bands = %d, want 2 (local only)", len(b.ByPlacement))
	}
	if _, err := MeasurePlacement(cfg, 1, RExcl, 10, nil); err == nil {
		t.Fatal("remote measurement on 1 socket accepted")
	}
}

func TestMeasurePlacementPaths(t *testing.T) {
	cfg := machine.DefaultConfig()
	for _, pl := range AllPlacements {
		xs, err := MeasurePlacement(cfg, 11, pl, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(xs) != 50 {
			t.Fatalf("%v: %d samples", pl, len(xs))
		}
		s := stats.Summarize(xs)
		if s.Std > 8 {
			t.Errorf("%v: quiet-machine spread %.1f too wide", pl, s.Std)
		}
	}
}

func TestClassifyNearestCenter(t *testing.T) {
	b := Bands{
		ByPlacement: map[Placement]stats.Band{
			LExcl:   {Name: "LExcl", Lo: 110, Hi: 140, Center: 124},
			LShared: {Name: "LShared", Lo: 85, Hi: 110, Center: 98},
		},
		DRAM: stats.Band{Name: "DRAM", Lo: 330, Hi: 360, Center: 346},
	}
	sc := Scenario{Comm: LExcl, Bound: LShared}
	cases := map[uint64]Class{
		124: ClassComm,
		98:  ClassBound,
		110: ClassBound, // 12 from 98, 14 from 124
		112: ClassComm,  // 14 from 98, 12 from 124
		300: ClassOther,
		346: ClassOther,
		20:  ClassBound, // nearest is still LShared
	}
	for lat, want := range cases {
		if got := b.Classify(sc, lat); got != want {
			t.Errorf("Classify(%d) = %v, want %v", lat, got, want)
		}
	}
}

// Property: classification is total (never panics) and consistent — a
// latency exactly at a band center always classifies as that band.
func TestClassifyTotalAndCenteredProperty(t *testing.T) {
	cfg := machine.DefaultConfig()
	b, err := Calibrate(cfg, 31, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range Scenarios {
		if got := b.Classify(sc, uint64(b.ByPlacement[sc.Comm].Center)); got != ClassComm {
			t.Errorf("%s: comm center classifies %v", sc.Name(), got)
		}
		if got := b.Classify(sc, uint64(b.ByPlacement[sc.Bound].Center)); got != ClassBound {
			t.Errorf("%s: bound center classifies %v", sc.Name(), got)
		}
		if got := b.Classify(sc, uint64(b.DRAM.Center)); got != ClassOther {
			t.Errorf("%s: DRAM center classifies %v", sc.Name(), got)
		}
		// Totality over a wide latency sweep.
		for lat := uint64(1); lat < 2000; lat += 7 {
			_ = b.Classify(sc, lat)
		}
	}
}

func machineDefaultForTest() machine.Config { return machine.DefaultConfig() }
