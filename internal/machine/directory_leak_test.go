package machine

import (
	"testing"

	"coherentleak/internal/sim"
)

// Regression for the directory leak: the store path once cleared the
// LLC-valid mark of remote-socket entries without the delete-when-empty
// logic, so every cross-socket RFO left a dead record (no sharers, no
// LLC copy) behind forever. The table now holds records only for
// sharers, and a remote RFO must still leave none behind.
func TestStoreRFOReclaimsRemoteDirectoryRecords(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		const n = 64
		base := uint64(0x100000)
		// Core 0 (socket 0) and core 6 (socket 1) share n lines, then
		// core 0 takes each line exclusive with a store.
		for i := uint64(0); i < n; i++ {
			addr := base + i*64
			m.Load(th, 0, addr)
			m.Load(th, 6, addr)
			m.Store(th, 0, addr)
		}
		// Socket 1 holds no copies of these lines any more: its directory
		// must have reclaimed every record, not kept dead ones.
		if got := liveEntries(m, 1); got != 0 {
			t.Fatalf("remote directory holds %d records after RFOs, want 0", got)
		}
		if got := deadRecords(m); got != 0 {
			t.Fatalf("line table holds %d dead records after RFOs", got)
		}
	})
}

// A flush-heavy run must leave the whole directory near-empty: clflush
// removes every record, and nothing the preceding loads/stores did may
// strand entries that flushes cannot reach.
func TestFlushHeavyRunLeavesDirectoryEmpty(t *testing.T) {
	runOn(t, DefaultConfig(), func(th *sim.Thread, m *Machine) {
		const n = 256
		base := uint64(0x400000)
		for i := uint64(0); i < n; i++ {
			addr := base + i*64
			m.Load(th, 0, addr)
			m.Load(th, 6, addr) // cross-socket sharing
			if i%3 == 0 {
				m.Store(th, 1, addr) // RFO churn from a sibling core
			}
		}
		for i := uint64(0); i < n; i++ {
			m.Flush(th, 0, base+i*64)
		}
		for s := 0; s < m.Sockets(); s++ {
			if got := liveEntries(m, s); got != 0 {
				t.Fatalf("socket %d directory holds %d records after flushing everything, want 0", s, got)
			}
		}
		if got := deadRecords(m); got != 0 {
			t.Fatalf("line table holds %d dead records after flushing everything", got)
		}
	})
}
