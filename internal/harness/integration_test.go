package harness_test

// Integration of the engine with the real experiment registry. These
// tests run under `go test -race ./internal/harness/...` (the Makefile
// tier), so the worker pool is race-checked against genuine experiment
// cells, not just synthetic stubs.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
	"coherentleak/internal/replay"
	"coherentleak/internal/store"
)

func quickPlan() harness.Plan {
	return harness.Plan{
		Cfg:    machine.DefaultConfig(),
		Seed:   experiments.DefaultSeed,
		Sizing: harness.SizingQuick,
	}
}

func runQuick(t *testing.T, names []string, r *harness.Runner) *harness.RunReport {
	t.Helper()
	arts, err := experiments.Artifacts().Select(names)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), quickPlan(), arts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRealArtifactSerialParallelIdentical is the ISSUE's determinism
// acceptance at engine level: a quick-sized multi-cell artifact run at
// -parallel 1 and -parallel 8 must produce byte-identical TSV bytes.
func TestRealArtifactSerialParallelIdentical(t *testing.T) {
	serial := runQuick(t, []string{"fig2"}, &harness.Runner{Parallel: 1})
	parallel := runQuick(t, []string{"fig2"}, &harness.Runner{Parallel: 8})
	s, p := serial.Results[0].TSV(), parallel.Results[0].TSV()
	if !bytes.Equal(s, p) {
		t.Fatalf("fig2 TSV differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
	if len(serial.Results[0].Rows) == 0 {
		t.Fatal("empty artifact")
	}
}

// TestSinksWriteTSVAndReplayArchive drives the full cmd-level sink
// stack: TSV files on disk plus versioned replay JSON records.
func TestSinksWriteTSVAndReplayArchive(t *testing.T) {
	dir := t.TempDir()
	r := &harness.Runner{
		Parallel: 4,
		Sinks: []harness.Sink{
			harness.TSVSink{Dir: dir},
			harness.ReplaySink{Dir: filepath.Join(dir, "replay")},
		},
	}
	rep := runQuick(t, []string{"table1", "fig2"}, r)

	tsv, err := os.ReadFile(filepath.Join(dir, "fig2_cdf.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tsv, rep.Results[1].TSV()) {
		t.Fatal("TSV file differs from assembled result")
	}

	f, err := os.Open(filepath.Join(dir, "replay", "fig2.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := replay.LoadArtifact(f)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Artifact != "fig2" || rec.Sizing != "quick" || rec.Seed != experiments.DefaultSeed {
		t.Fatalf("archived provenance wrong: %+v", rec)
	}
	if rec.ConfigDigest != quickPlan().ConfigDigest() {
		t.Fatal("archived config digest mismatch")
	}
	if len(rec.Rows) != len(rep.Results[1].Rows) || len(rec.Cells) != 4 {
		t.Fatalf("archived shape wrong: %d rows, %d cells", len(rec.Rows), len(rec.Cells))
	}
}

// TestManifestCacheAcrossProcessBoundary runs two Runners over two
// store.Disk handles opened on one directory, as two cmd invocations
// would, asserting the second run is all cache hits with identical
// bytes.
func TestManifestCacheAcrossProcessBoundary(t *testing.T) {
	dir := t.TempDir()

	d1, err := store.NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := runQuick(t, []string{"fig2"}, &harness.Runner{Parallel: 4, Manifest: d1})
	if first.CacheHits != 0 || first.Executed != 4 {
		t.Fatalf("first run: %+v", first)
	}

	d2, err := store.NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	second := runQuick(t, []string{"fig2"}, &harness.Runner{Parallel: 4, Manifest: d2})
	if second.CacheHits != 4 || second.Executed != 0 {
		t.Fatalf("second run not fully cached: %+v", second)
	}
	if !bytes.Equal(first.Results[0].TSV(), second.Results[0].TSV()) {
		t.Fatal("cached rerun TSV differs")
	}
}

// TestCompiledKernelGOMAXPROCS4Identity is the multi-core determinism
// gate for the fused access-stream executor: with the Go scheduler
// forced to 4 OS threads (real parallel cell execution regardless of
// host shape), fig2 — whose cells run kernel-build noise threads
// through kernel.Thread.Exec — must produce byte-identical TSVs at
// -parallel 1 and -parallel 8. The bytes themselves are pinned by the
// fig2 golden in internal/experiments.
func TestCompiledKernelGOMAXPROCS4Identity(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	arts, err := experiments.Artifacts().Select([]string{"fig2"})
	if err != nil {
		t.Fatal(err)
	}
	run := func(p harness.Plan, parallel int) []byte {
		rep, err := (&harness.Runner{Parallel: parallel}).Run(context.Background(), p, arts)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		return rep.Results[0].TSV()
	}

	serial := run(quickPlan(), 1)
	parallel := run(quickPlan(), 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("TSV differs between -parallel 1 and -parallel 8 under GOMAXPROCS=4:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}
