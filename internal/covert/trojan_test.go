package covert

import (
	"testing"

	"coherentleak/internal/machine"
)

func TestTrojanSpawnsTableIThreadCounts(t *testing.T) {
	for _, sc := range Scenarios {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			sess, err := NewSession(machine.DefaultConfig(), 1, 0, ShareExplicit)
			if err != nil {
				t.Fatal(err)
			}
			tr := startTrojan(sess, binaryCodec(sc, DefaultParams(), Bands{}, [][]byte{{1, 0}}))
			l, r := sc.TrojanThreads()
			if len(tr.threads) != l+r {
				t.Fatalf("spawned %d workers, Table I says %d", len(tr.threads), l+r)
			}
			tr.stop()
			sess.World.Drain()
		})
	}
}

func TestTrojanWorkerCorePinning(t *testing.T) {
	sess, err := NewSession(machine.DefaultConfig(), 1, 0, ShareExplicit)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenarios[5] // RSharedc-LSharedb: 2 local + 2 remote
	tr := startTrojan(sess, binaryCodec(sc, DefaultParams(), Bands{}, [][]byte{{1}}))
	spySocket := sess.Mach.Core(sess.SpyCore).Socket
	local, remote := 0, 0
	for _, th := range tr.threads {
		if th.CoreID == sess.SpyCore {
			t.Fatal("worker pinned to the spy's core")
		}
		if sess.Mach.Core(th.CoreID).Socket == spySocket {
			local++
		} else {
			remote++
		}
	}
	if local != 2 || remote != 2 {
		t.Fatalf("pinning: %d local, %d remote workers", local, remote)
	}
	tr.stop()
	sess.World.Drain()
}

func TestTrojanPollGapFloor(t *testing.T) {
	sess, err := NewSession(machine.DefaultConfig(), 1, 0, ShareExplicit)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Ts = 30 // Ts/3 = 10 < floor
	tr := startTrojan(sess, binaryCodec(Scenarios[0], p, Bands{}, [][]byte{{1}}))
	if tr.pollGap < 24 {
		t.Fatalf("pollGap = %d, below the floor", tr.pollGap)
	}
	tr.stop()
	sess.World.Drain()
}

// Workers exit on their own once the schedule's idle tail has clearly
// passed, without an explicit stop.
func TestTrojanWorkersExitAfterIdleTail(t *testing.T) {
	ch := NewChannel(Scenarios[0])
	res, err := ch.Run([]byte{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1 {
		t.Fatalf("accuracy %v", res.Accuracy)
	}
	// Run() calls tr.stop + Drain; reaching here without a deadlock or
	// cycle-limit error is the assertion.
}

func TestScheduleIdleTailStable(t *testing.T) {
	s := buildSchedule(Scenarios[0], DefaultParams(), []byte{1, 0, 1})
	n := uint64(len(s))
	for _, i := range []uint64{n, n + 1, n + 1000, ^uint64(0)} {
		if _, live := s.at(i); live {
			t.Fatalf("schedule live at period %d (len %d)", i, n)
		}
	}
}
