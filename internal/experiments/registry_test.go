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

// TestResultsCoverEveryArtifact: every registered artifact has its
// full-size TSV committed under results/, so `make results-verify`
// checks every artifact the registry writes.
func TestResultsCoverEveryArtifact(t *testing.T) {
	for _, a := range Artifacts().Artifacts() {
		if _, err := os.Stat(filepath.Join("..", "..", "results", a.File)); err != nil {
			t.Errorf("artifact %s has no committed results TSV: %v", a.Name, err)
		}
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
// TSVs of fig2, capacity, every covert-channel artifact (fig7, fig8,
// fig9, fig11, peaks, protomatrix, mitigations) and the slotted channels
// (lrustate, dirtystate) through the Runner and compares them byte-for-byte against
// checked-in golden files. fig2 and capacity run kernel-build noise
// threads, so they pin the access-stream executor's output; the goldens
// were recorded with the per-op reference executor. The channel goldens
// pin the covert trojan/spy driver.
func TestGoldenTSVs(t *testing.T) {
	dir := t.TempDir()
	arts, err := Artifacts().Select([]string{"table1", "fig6", "fig2", "capacity", "fig7", "fig8", "fig9", "fig11", "peaks", "protomatrix", "mitigations", "lrustate", "dirtystate"})
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
		"table1.tsv":              "table1.golden.tsv",
		"fig6_pattern.tsv":        "fig6_pattern.golden.tsv",
		"fig2_cdf.tsv":            "fig2_cdf.golden.tsv",
		"capacity.tsv":            "capacity.golden.tsv",
		"fig7_reception.tsv":      "fig7_reception.golden.tsv",
		"fig8_rate_accuracy.tsv":  "fig8_rate_accuracy.golden.tsv",
		"fig9_noise_accuracy.tsv": "fig9_noise_accuracy.golden.tsv",
		"peaks.tsv":               "peaks.golden.tsv",
		"fig11_multibit.tsv":      "fig11_multibit.golden.tsv",
		"protocol_matrix.tsv":     "protocol_matrix.golden.tsv",
		"mitigations.tsv":         "mitigations.golden.tsv",
		"lrustate.tsv":            "lrustate.golden.tsv",
		"dirtystate.tsv":          "dirtystate.golden.tsv",
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

// TestFig10CellGolden pins the rows of fig10's first quick cell, the
// artifact whose noise threads exercise the machine's line table most.
// The whole quick artifact is too slow for this suite.
func TestFig10CellGolden(t *testing.T) {
	a := fig10Artifact()
	cells, err := a.Cells(registryPlan(harness.SizingQuick))
	if err != nil {
		t.Fatal(err)
	}
	out, err := cells[0].Run()
	if err != nil {
		t.Fatal(err)
	}
	got := a.Header + "\n" + strings.Join(out.Rows, "\n") + "\n"
	want, err := os.ReadFile(filepath.Join("testdata", "fig10_cell.golden.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fig10 cell %s deviates from testdata/fig10_cell.golden.tsv:\n--- got ---\n%s--- want ---\n%s", cells[0].Name, got, want)
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
