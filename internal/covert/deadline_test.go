package covert

import (
	"maps"
	"testing"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// farBands returns bands whose pl band is centred out of any load's
// reach, so no timed load ever classifies as pl.
func farBands(t *testing.T, pl Placement) *Bands {
	t.Helper()
	b, err := Calibrate(machine.DefaultConfig(), 99, 50, BandMargin)
	if err != nil {
		t.Fatal(err)
	}
	b.ByPlacement = maps.Clone(b.ByPlacement)
	band := b.ByPlacement[pl]
	band.Center = 1e12
	b.ByPlacement[pl] = band
	return &b
}

// checkStoppedAtDeadline asserts that a run which never synchronized
// ended with the world clock just past its deadline: the deadline, not
// maxPeriods or a finished spy, stopped it.
func checkStoppedAtDeadline(t *testing.T, sess *Session, deadline sim.Cycles) {
	t.Helper()
	if sess == nil {
		t.Fatal("PreRun never saw the session")
	}
	if now := sess.World.Now(); now < deadline || now > deadline+deadline/100 {
		t.Fatalf("run ended at cycle %d, want just past the deadline %d", now, deadline)
	}
}

// TestRunStopsAtDeadlineWithoutSync: when the spy can never lock on (the
// preamble's band is out of reach), the deadline is the only bound on a
// run. Both channels must return there with Synced false, no received
// bits and no error.
func TestRunStopsAtDeadlineWithoutSync(t *testing.T) {
	bits := []byte{1, 0, 1, 1, 0, 0, 1, 0}

	t.Run("binary", func(t *testing.T) {
		sc := Scenarios[0]
		var sess *Session
		ch := NewChannel(sc)
		ch.Bands = farBands(t, sc.Bound)
		ch.PreRun = func(s *Session) { sess = s }
		res, err := ch.Run(bits)
		if err != nil {
			t.Fatal(err)
		}
		if res.Synced || len(res.RxBits) != 0 {
			t.Fatalf("Synced=%v RxBits=%v, want an unsynchronized, empty reception", res.Synced, res.RxBits)
		}
		checkStoppedAtDeadline(t, sess, ch.deadline([]schedule{buildSchedule(sc, ch.Params, bits)}))
	})

	t.Run("multibit", func(t *testing.T) {
		var sess *Session
		ch := NewMultiBitChannel()
		ch.Bands = farBands(t, RExcl)
		ch.PreRun = func(s *Session) { sess = s }
		res, err := ch.Run(bits)
		if err != nil {
			t.Fatal(err)
		}
		if res.Synced || len(res.RxBits) != 0 {
			t.Fatalf("Synced=%v RxBits=%v, want an unsynchronized, empty reception", res.Synced, res.RxBits)
		}
		checkStoppedAtDeadline(t, sess, multiBitDeadline(buildSymbolSchedule(ch.Params, []int{2, 3, 0, 2})))
	})
}
