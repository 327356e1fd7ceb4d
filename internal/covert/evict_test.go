package covert

import (
	"fmt"
	"slices"
	"testing"

	"coherentleak/internal/cache"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/mem"
	"coherentleak/internal/sim"
)

func TestBuildSpyEvictionSet(t *testing.T) {
	sess, err := NewSession(machine.DefaultConfig(), 1, 0, ShareExplicit)
	if err != nil {
		t.Fatal(err)
	}
	set, err := sess.BuildSpyEvictionSet()
	if err != nil {
		t.Fatal(err)
	}
	llc := sess.Mach.Socket(0).LLC
	want := llc.Geometry().Ways
	if len(set) != want {
		t.Fatalf("set size = %d, want %d (LLC ways)", len(set), want)
	}
	target := llc.SetIndexOf(sess.SharedPA())
	seen := map[uint64]bool{}
	for _, va := range set {
		pa, err := sess.SpyProc.Translate(va)
		if err != nil {
			t.Fatal(err)
		}
		if llc.SetIndexOf(pa) != target {
			t.Fatalf("conflict line %#x maps to set %d, want %d", pa, llc.SetIndexOf(pa), target)
		}
		line := cache.LineAddr(pa)
		if seen[line] {
			t.Fatalf("duplicate conflict line %#x", line)
		}
		if line == cache.LineAddr(sess.SharedPA()) {
			t.Fatal("conflict set contains B itself")
		}
		seen[line] = true
	}
}

// The §VI-B alternative end to end: a no-clflush spy transmits over the
// local scenario using conflict-set eviction, slower but accurate.
func TestEvictionProbeChannel(t *testing.T) {
	bits := PatternBitsForTest(41, 40)
	p := DefaultParams()
	p.Probe = ProbeEviction
	ch := NewChannel(Scenarios[0]) // LExclc-LSharedb: local only
	ch.Params = p
	res, err := ch.Run(bits)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Synced {
		t.Fatal("no sync under eviction probing")
	}
	if res.Accuracy != 1 {
		t.Fatalf("eviction-probe accuracy = %v (rx %d bits)", res.Accuracy, len(res.RxBits))
	}
	// Eviction probing pays ~16 extra loads per period: measurably slower
	// than clflush probing at the same Ts.
	flush := NewChannel(Scenarios[0])
	fres, err := flush.Run(bits)
	if err != nil {
		t.Fatal(err)
	}
	if res.RawKbps >= fres.RawKbps {
		t.Fatalf("eviction probing (%.0f Kbps) not slower than clflush (%.0f Kbps)",
			res.RawKbps, fres.RawKbps)
	}
}

func TestEvictionProbeRejectsRemoteScenarios(t *testing.T) {
	p := DefaultParams()
	p.Probe = ProbeEviction
	ch := NewChannel(Scenarios[1]) // RExclc-RSharedb
	ch.Params = p
	if _, err := ch.Run([]byte{1, 0}); err == nil {
		t.Fatal("remote scenario accepted under eviction probing")
	}
}

func TestEvictionProbeRequiresInclusiveLLC(t *testing.T) {
	p := DefaultParams()
	p.Probe = ProbeEviction
	ch := NewChannel(Scenarios[0])
	ch.Params = p
	ch.Config.InclusiveLLC = false
	if _, err := ch.Run([]byte{1, 0}); err == nil {
		t.Fatal("non-inclusive LLC accepted under eviction probing")
	}
}

func TestProbeMethodString(t *testing.T) {
	if ProbeClflush.String() != "clflush" || ProbeEviction.String() != "eviction" {
		t.Fatal("probe method strings wrong")
	}
}

// bruteConflictLines is the search conflictLines must reproduce: the
// same one-page-at-a-time Mmap sequence, but every line of every page is
// tested with SetIndexOf.
func bruteConflictLines(t *testing.T, proc *kernel.Process, c *cache.Cache, targetPA uint64, n int, keep func(pa uint64) bool) (vas, pas []uint64) {
	t.Helper()
	target := c.SetIndexOf(targetPA)
	for tries := 0; len(vas) < n && tries < maxConflictPages; tries++ {
		va := proc.MustMmap(1)
		base, err := proc.Translate(va)
		if err != nil {
			t.Fatal(err)
		}
		for off := uint64(0); off < kernel.PageSize && len(vas) < n; off += cache.LineSize {
			if pa := base + off; c.SetIndexOf(pa) == target && keep(pa) {
				vas = append(vas, va+off)
				pas = append(pas, pa)
			}
		}
	}
	return vas, pas
}

// fragmentedKernel returns a kernel whose free list hands out frames
// 1..frames in a seeded random order, so successive Mmap(1) calls map
// pages at random physical bases.
func fragmentedKernel(seed uint64, frames int) *kernel.Kernel {
	k := kernel.New(machine.New(sim.NewWorld(sim.Config{Seed: 1}), machine.DefaultConfig()), 0)
	fs := make([]mem.Frame, frames)
	for i := range fs {
		fs[i], _ = k.Memory().Alloc() // unbounded memory: cannot fail
	}
	r := sim.NewRand(seed)
	for i := len(fs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		fs[i], fs[j] = fs[j], fs[i]
	}
	for _, f := range fs {
		k.Memory().Release(f)
	}
	return k
}

// TestConflictLinesMatchesBruteForce: visiting only the lines whose set
// can match must find exactly the lines a full SetIndexOf scan finds, in
// the same order, after the same Mmap sequence — for the modulo-indexed
// LLC, the L2, a power-of-two LLC, and a cache with fewer sets than a
// page has lines (several matches per page).
func TestConflictLinesMatchesBruteForce(t *testing.T) {
	def := machine.DefaultConfig()
	geos := []struct {
		name string
		geo  cache.Geometry
		n    int
	}{
		{"llc-12288", def.LLC, def.LLC.Ways},
		{"l2-512", def.L2, scrubLines},
		{"llc-pow2", cache.Geometry{SizeBytes: 8 << 20, Ways: 16}, 16},
		{"tiny-8", cache.Geometry{SizeBytes: 8 * 2 * cache.LineSize, Ways: 2}, 37},
	}
	const frames = 4096
	for _, g := range geos {
		c := cache.MustNew(g.geo, cache.PolicyLRU)
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				r := sim.NewRand(seed)
				targetPA := (1+r.Uint64n(frames))*kernel.PageSize + r.Uint64n(kernel.PageSize)
				// keep drops a pseudo-random quarter of the lines, so its
				// verdicts are interleaved; the helper also drops the
				// target's own line, which the scan must do explicitly.
				keep := func(pa uint64) bool { return (pa*0x9E3779B97F4A7C15)>>62 != 0 }
				notTarget := func(pa uint64) bool { return cache.LineAddr(pa) != cache.LineAddr(targetPA) && keep(pa) }
				gk, wk := fragmentedKernel(seed, frames), fragmentedKernel(seed, frames)
				gp, wp := gk.NewProcess("got"), wk.NewProcess("want")
				gotVAs, gotPAs, err := conflictLines(gp, c, targetPA, g.n, keep, "conflict")
				if err != nil {
					t.Fatal(err)
				}
				wantVAs, wantPAs := bruteConflictLines(t, wp, c, targetPA, g.n, notTarget)
				if !slices.Equal(gotVAs, wantVAs) || !slices.Equal(gotPAs, wantPAs) {
					t.Fatalf("lines differ:\n got VAs %x PAs %x\nwant VAs %x PAs %x", gotVAs, gotPAs, wantVAs, wantPAs)
				}
				if !slices.Equal(gp.Pages(), wp.Pages()) || gk.MappingEpoch() != wk.MappingEpoch() {
					t.Fatalf("mapped %d pages (epoch %d), brute force %d (epoch %d)",
						len(gp.Pages()), gk.MappingEpoch(), len(wp.Pages()), wk.MappingEpoch())
				}
				if next, want := gp.MustMmap(1), wp.MustMmap(1); next != want {
					t.Fatalf("next mapping at %#x, brute force %#x", next, want)
				}
			})
		}
	}
}

// TestBuildSpyEvictionSetFootprint pins what building the default spy
// eviction set maps: the same pages, break and conflict lines as the
// page-by-page search it replaced, in both sharing modes.
func TestBuildSpyEvictionSetFootprint(t *testing.T) {
	for _, tc := range []struct {
		mode       SharingMode
		epochDelta uint64
	}{{ShareExplicit, 3072}, {ShareKSM, 3071}} {
		sess, err := NewSession(machine.DefaultConfig(), 1, 0, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		e0 := sess.Kern.MappingEpoch()
		set, err := sess.BuildSpyEvictionSet()
		if err != nil {
			t.Fatal(err)
		}
		if pages := len(sess.SpyProc.Pages()); pages != 3073 {
			t.Errorf("%v: spy maps %d pages, want 3073", tc.mode, pages)
		}
		if d := sess.Kern.MappingEpoch() - e0; d != tc.epochDelta {
			t.Errorf("%v: mapping epoch moved %d, want %d", tc.mode, d, tc.epochDelta)
		}
		if next := sess.SpyProc.MustMmap(1); next != 0x200c01000 {
			t.Errorf("%v: spy break at %#x, want 0x200c01000", tc.mode, next)
		}
		if got := fmt.Sprintf("%x", set); got != "[2000c0000 200180000 200240000 200300000 2003c0000 200480000 200540000 200600000 2006c0000 200780000 200840000 200900000 2009c0000 200a80000 200b40000 200c00000]" {
			t.Errorf("%v: eviction set %s", tc.mode, got)
		}
	}
}
