package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
)

func registryPlan(sizing harness.Sizing) harness.Plan {
	return harness.Plan{Cfg: machine.DefaultConfig(), Seed: DefaultSeed, Sizing: sizing}
}

// TestArtifactsRegistryComplete pins the registered artifact set — the
// CLI's -only vocabulary and the benchmark sub-test names.
func TestArtifactsRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "peaks", "mitigations", "capacity", "protomatrix", "lrustate", "dirtystate"}
	got := Artifacts().Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("registry = %v, want %v", got, want)
	}
}

// TestArtifactCellPlansAreWellFormed enumerates every artifact's cells
// at both sizings without running them: non-empty, uniquely named, and
// decomposed (the sweep artifacts must expose real parallelism).
func TestArtifactCellPlansAreWellFormed(t *testing.T) {
	minCells := map[string]int{
		"fig2": 4, "fig7": 6, "fig8": 6, "fig9": 6, "fig10": 6,
		"mitigations": 6, "capacity": 3,
	}
	for _, sizing := range []harness.Sizing{harness.SizingQuick, harness.SizingFull} {
		for _, a := range Artifacts().Artifacts() {
			cells, err := a.Cells(registryPlan(sizing))
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name, sizing, err)
			}
			if len(cells) == 0 {
				t.Fatalf("%s/%s: no cells", a.Name, sizing)
			}
			if min := minCells[a.Name]; len(cells) < min {
				t.Fatalf("%s/%s: %d cells, want >= %d", a.Name, sizing, len(cells), min)
			}
			seen := map[string]bool{}
			for _, c := range cells {
				if c.Name == "" || c.Run == nil || seen[c.Name] {
					t.Fatalf("%s/%s: bad cell %q", a.Name, sizing, c.Name)
				}
				seen[c.Name] = true
			}
		}
	}
}

// TestGoldenTSVs regenerates table1.tsv, fig6_pattern.tsv and the quick
// fig2_cdf.tsv and capacity.tsv through the Runner and compares them
// byte-for-byte against checked-in golden files. fig2 and capacity run
// kernel-build noise threads, so they pin the access-stream executor's
// output; the goldens were recorded with the per-op reference executor.
func TestGoldenTSVs(t *testing.T) {
	dir := t.TempDir()
	arts, err := Artifacts().Select([]string{"table1", "fig6", "fig2", "capacity"})
	if err != nil {
		t.Fatal(err)
	}
	r := &harness.Runner{Parallel: 2, Sinks: []harness.Sink{harness.TSVSink{Dir: dir}}}
	rep, err := r.Run(context.Background(), registryPlan(harness.SizingQuick), arts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for file, golden := range map[string]string{
		"table1.tsv":       "table1.golden.tsv",
		"fig6_pattern.tsv": "fig6_pattern.golden.tsv",
		"fig2_cdf.tsv":     "fig2_cdf.golden.tsv",
		"capacity.tsv":     "capacity.golden.tsv",
	} {
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s deviates from testdata/%s:\n--- got ---\n%s--- want ---\n%s", file, golden, got, want)
		}
	}
}

// TestDecomposedSweepsMatchSerialFunctions verifies that the per-cell
// entry points carved out for the registry (MitigationScenario,
// CapacityColumn, Fig2Placement) reproduce the historical whole-grid
// functions exactly, seeds included.
func TestDecomposedSweepsMatchSerialFunctions(t *testing.T) {
	cfg := machine.DefaultConfig()

	whole, err := Fig2LatencyCDF(cfg, 50, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range whole {
		cell, err := Fig2Placement(cfg, s.Placement, 50, DefaultSeed+uint64(i)*13)
		if err != nil {
			t.Fatal(err)
		}
		if len(cell.Samples) != len(s.Samples) {
			t.Fatalf("fig2 %s: sample count differs", s.Placement)
		}
		for j := range cell.Samples {
			if cell.Samples[j] != s.Samples[j] {
				t.Fatalf("fig2 %s sample %d: %v != %v", s.Placement, j, cell.Samples[j], s.Samples[j])
			}
		}
	}
}
