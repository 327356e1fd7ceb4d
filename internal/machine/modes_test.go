package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from the current run")

// modesPool is the line pool of the modes streams: twelve lines in one
// SmallConfig LLC set (and one L2 set), so the 8-way LLC evicts and an
// inclusive LLC back-invalidates constantly, plus twelve consecutive
// lines that spread over distinct sets.
func modesPool() []uint64 {
	var pool []uint64
	for k := uint64(0); k < 12; k++ {
		pool = append(pool, 0x10000+k*8192)
	}
	for k := uint64(0); k < 12; k++ {
		pool = append(pool, 0x40000+k*cache.LineSize)
	}
	return pool
}

// modesRow runs a seeded Load/Store/Flush stream over cores on every
// socket and digests every access's (op, core, line, path, latency),
// then the live per-socket line entries (line, sharers, LLC-valid) and
// the meta records, each in ascending line order.
func modesRow(t *testing.T, name string, cfg Config, seed int64) string {
	t.Helper()
	const ops = 2000
	pool := modesPool()
	h := sha256.New()
	var buf [8]byte
	w := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	var entries, metas int
	runOn(t, cfg, func(th *sim.Thread, m *Machine) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < ops; i++ {
			core := r.Intn(m.Cores())
			line := pool[r.Intn(len(pool))]
			var op uint64
			var a Access
			switch k := r.Intn(10); {
			case k < 6:
				a = m.Load(th, core, line)
			case k < 9:
				op, a = 1, m.Store(th, core, line)
			default:
				op, a = 2, m.Flush(th, core, line)
			}
			w(op, uint64(core), line, uint64(a.Path), uint64(a.Latency))
			if i%25 == 24 || i == ops-1 {
				for _, l := range pool {
					for _, v := range Violations(m.CheckInvariants(l)) {
						if !KnownDivergence(cfg, v.Invariant) {
							t.Fatalf("%s: op %d: %v", name, i, v)
						}
					}
				}
			}
		}
		w(0xe7e7)
		lines := m.lines.sortedLines()
		for s := range m.sockets {
			for _, line := range lines {
				if m.lines.live(line, s) {
					entries++
					w(uint64(s), line, m.lines.sharerMask(line, s), b2u(m.lines.llcValid(line, s)))
				}
			}
		}
		w(0x11fe)
		for _, line := range lines {
			if lm := m.lines.meta(line); lm != nil {
				metas++
				w(line, b2u(lm.upgraded), b2u(lm.hasFlush), lm.flushEpochs, lm.evictEpochs,
					uint64(lm.lastFlush), math.Float64bits(lm.pressure))
			}
		}
	})
	return fmt.Sprintf("%x entries=%d metas=%d", h.Sum(nil), entries, metas)
}

// modesRows returns the golden's rows: every LLC mode × protocol ×
// replacement policy × E->M notification setting on SmallConfig, plus a
// 1-socket and a 4-socket row per protocol.
func modesRows(t *testing.T) []string {
	modes := []struct {
		name                 string
		inclusive, exclusive bool
	}{{"inclusive", true, false}, {"non-inclusive", false, false}, {"exclusive", false, true}}
	var rows []string
	seed := int64(1)
	for _, mode := range modes {
		for _, proto := range coherence.Protocols() {
			for _, pol := range cache.PolicyNames() {
				for _, notify := range []bool{false, true} {
					cfg := SmallConfig()
					cfg.InclusiveLLC, cfg.ExclusiveLLC = mode.inclusive, mode.exclusive
					cfg.Protocol, cfg.Replacement = proto, pol
					cfg.Mitigations.LLCNotifiedOfEToM = notify
					name := fmt.Sprintf("%s/%s/%s/notify=%v", mode.name, proto, pol, notify)
					rows = append(rows, name+"\t"+modesRow(t, name, cfg, seed))
					seed++
				}
			}
		}
	}
	for _, proto := range coherence.Protocols() {
		for _, sockets := range []int{1, 4} {
			cfg := SmallConfig()
			cfg.Protocol, cfg.Sockets = proto, sockets
			name := fmt.Sprintf("sockets=%d/%s", sockets, proto)
			rows = append(rows, name+"\t"+modesRow(t, name, cfg, seed))
			seed++
		}
	}
	return rows
}

// TestModesGolden pins the machine's behaviour in every LLC mode,
// including the non-inclusive and exclusive LLCs no artifact runs. Run
// with -update-golden only after an intentional simulator change.
func TestModesGolden(t *testing.T) {
	got := strings.Join(modesRows(t), "\n") + "\n"
	path := filepath.Join("testdata", "modes.golden")
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
		t.Fatalf("missing golden (run go test -run TestModesGolden -update-golden): %v", err)
	}
	if got != string(want) {
		g, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(wl); i++ {
			if g[i] != wl[i] {
				t.Fatalf("modes diverge at row %d:\ngot  %s\nwant %s", i+1, g[i], wl[i])
			}
		}
		t.Fatalf("modes has %d rows, golden %d", len(g), len(wl))
	}
}
