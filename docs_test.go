package coherentleak

import (
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// dirRef matches `cmd/<name>`, `examples/<name>` and their `./` forms,
// but not a path that merely ends in cmd/
// (honnef.co/go/tools/cmd/staticcheck).
var (
	dirRef     = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?(cmd|examples)/([\w-]+)`)
	cmdBracket = regexp.MustCompile(`(?:^|[^\w./-])cmd/\{([\w,-]+)\}`)
)

// docFiles returns the documents the docs tests scan. At the root only
// the documents that describe the tree as it is are scanned; the change
// log is history and names commands and tests that were removed.
// Markdown files below the root are always scanned.
func docFiles(t *testing.T) []string {
	t.Helper()
	rootDocs := map[string]bool{
		"Makefile": true, "README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true,
		"ROADMAP.md": true, "PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true,
	}
	var files []string
	err := walkTree(func(path string) {
		if filepath.Dir(path) == "." && rootDocs[path] ||
			filepath.Dir(path) != "." && strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("scanned only %v; want the docs and the Makefile", files)
	}
	return files
}

// walkTree calls fn for every file of the checkout, skipping the git
// directory and the benchmark's build cache.
func walkTree(fn func(path string)) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build"):
			return filepath.SkipDir
		case !d.IsDir():
			fn(path)
		}
		return nil
	})
}

// forEachDocLine calls fn for every line of every scanned document.
func forEachDocLine(t *testing.T, fn func(path string, lineNo int, line string)) {
	t.Helper()
	for _, path := range docFiles(t) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			fn(path, i+1, line)
		}
	}
}

// TestDocsNameRealCommands: every command the Markdown docs and the
// Makefile name as cmd/<name> is a directory under cmd/, and every
// examples/<name> a directory under examples/, so folding, renaming or
// deleting a binary or an example cannot leave stale instructions behind.
func TestDocsNameRealCommands(t *testing.T) {
	forEachDocLine(t, func(path string, lineNo int, line string) {
		var refs []string
		for _, m := range dirRef.FindAllStringSubmatch(line, -1) {
			refs = append(refs, m[1]+"/"+m[2])
		}
		for _, m := range cmdBracket.FindAllStringSubmatch(line, -1) {
			for _, name := range strings.Split(m[1], ",") {
				refs = append(refs, "cmd/"+name)
			}
		}
		for _, ref := range refs {
			if st, err := os.Stat(filepath.FromSlash(ref)); err != nil || !st.IsDir() {
				t.Errorf("%s:%d names %s, which is not a directory", path, lineNo, ref)
			}
		}
	})
}

// testRef matches Test…, Benchmark… and Fuzz… names and the Example_x
// and ExampleX forms, but not the bare word Example.
var (
	testRef  = regexp.MustCompile(`\b(?:(?:Test|Benchmark|Fuzz|Example)[A-Z]\w*|Example_\w+)`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)[A-Z]\w*|Example_\w+)\(`)
)

// TestDocsNameRealTests: every test, benchmark, fuzz target or example
// the scanned documents name is declared in some _test.go file, so
// deleting or renaming one cannot leave a stale citation behind.
func TestDocsNameRealTests(t *testing.T) {
	declared := map[string]bool{}
	err := walkTree(func(path string) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testDecl.FindAllSubmatch(b, -1) {
			declared[string(m[1])] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !declared["TestDocsNameRealTests"] {
		t.Fatal("found no test declarations; the walk is broken")
	}
	forEachDocLine(t, func(path string, lineNo int, line string) {
		for _, name := range testRef.FindAllString(line, -1) {
			if !declared[name] {
				t.Errorf("%s:%d names %s, which no _test.go file declares", path, lineNo, name)
			}
		}
	})
}

// experimentsTable returns the cells of every row of the first table in
// EXPERIMENTS.md's section whose heading starts with heading, header
// row included and the separator row skipped, with bold marks trimmed.
func experimentsTable(t *testing.T, heading string) [][]string {
	t.Helper()
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## "+heading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for i := range cells {
			cells[i] = strings.Trim(strings.TrimSpace(cells[i]), "*")
		}
		if !strings.HasPrefix(cells[0], "---") {
			rows = append(rows, cells)
		}
	}
	return rows
}

// tsvRows returns the data rows of a results TSV, split into fields.
func tsvRows(t *testing.T, path string) [][]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n")[1:] {
		rows = append(rows, strings.Split(line, "\t"))
	}
	return rows
}

// plainNumber matches a cell that is a number and nothing else.
var plainNumber = regexp.MustCompile(`^[0-9]+(\.[0-9]+)?$`)

// printedAs reports whether num, a decimal number, equals v rounded to
// the decimals it is printed with.
func printedAs(num string, v float64) bool {
	got, err := strconv.ParseFloat(num, 64)
	decimals := 0
	if _, frac, ok := strings.Cut(num, "."); ok {
		decimals = len(frac)
	}
	return err == nil && math.Abs(got-v) <= 0.5*math.Pow(10, -float64(decimals))+1e-9
}

// TestMitigationTableMatchesTSV: every cell of EXPERIMENTS.md's §VIII-E
// table equals results/mitigations.tsv at the precision the table
// prints it, and the table covers every row of the TSV, so the prose
// cannot drift from the committed results.
func TestMitigationTableMatchesTSV(t *testing.T) {
	want := map[string]float64{} // "scenario/defense" -> accuracy
	for _, f := range tsvRows(t, "results/mitigations.tsv") {
		if len(f) != 3 {
			t.Fatalf("mitigations.tsv row %q: want 3 fields", f)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		want[f[0]+"/"+f[1]] = v
	}
	defenses := map[string]string{
		"none": "none", "monitor": "monitor", "ksm-guard": "ksm-guard",
		"E→M notify": "etom-notify", "equalize": "equalize", "full HW": "full-hw",
	}
	var cols []string
	checked := 0
	for _, cells := range experimentsTable(t, "§VIII-E") {
		if cells[0] == "Scenario" {
			for _, h := range cells[1:] {
				d, ok := defenses[h]
				if !ok {
					t.Fatalf("§VIII-E table: unknown defense column %q", h)
				}
				cols = append(cols, d)
			}
			continue
		}
		if len(cells)-1 != len(cols) {
			t.Fatalf("§VIII-E row %q: %d cells, want %d", cells, len(cells)-1, len(cols))
		}
		for i, c := range cells[1:] {
			key := cells[0] + "/" + cols[i]
			w, ok := want[key]
			if !ok {
				t.Errorf("§VIII-E %s = %q: not in mitigations.tsv", key, c)
				continue
			}
			if !plainNumber.MatchString(c) {
				t.Errorf("§VIII-E %s = %q: not a number", key, c)
			} else if !printedAs(c, w) {
				t.Errorf("§VIII-E %s = %s, mitigations.tsv has %.4f", key, c, w)
			}
			checked++
		}
	}
	if checked != len(want) {
		t.Errorf("§VIII-E table checks %d cells, mitigations.tsv has %d", checked, len(want))
	}
}

// peakRate matches the rate leading a peak rates cell, as in
// "767 Kbps (≥97%)" or "~1.61×".
var peakRate = regexp.MustCompile(`^~?([0-9]+(?:\.[0-9]+)?)(?: Kbps|×)`)

// TestPeaksTableMatchesTSV: the measured column of EXPERIMENTS.md's peak
// rates table equals results/peaks.tsv at the precision the table
// prints it: the binary and multibit rates, the binary row's best
// scenario, and the multibit/binary ratio.
func TestPeaksTableMatchesTSV(t *testing.T) {
	kbps, scenario := map[string]float64{}, map[string]string{}
	for _, f := range tsvRows(t, "results/peaks.tsv") {
		if len(f) != 3 {
			t.Fatalf("peaks.tsv row %q: want 3 fields", f)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		kbps[f[0]], scenario[f[0]] = v, f[2]
	}
	if kbps["binary"] == 0 || kbps["multibit"] == 0 {
		t.Fatalf("peaks.tsv lacks a binary or multibit rate: %v", kbps)
	}
	want := map[string]float64{
		"Binary, best scenario": kbps["binary"],
		"2-bit symbols":         kbps["multibit"],
		"Ratio":                 kbps["multibit"] / kbps["binary"],
	}
	checked := 0
	for _, cells := range experimentsTable(t, "Abstract / §VIII peak rates") {
		if cells[0] == "Channel" {
			continue
		}
		w, ok := want[cells[0]]
		if !ok || len(cells) != 3 {
			t.Errorf("peak rates row %q: unknown channel or not 3 cells", cells)
			continue
		}
		if num := peakRate.FindStringSubmatch(cells[2]); num == nil || !printedAs(num[1], w) {
			t.Errorf("peak rates %s = %q, peaks.tsv gives %.4f", cells[0], cells[2], w)
		}
		if cells[0] == "Binary, best scenario" && !strings.Contains(cells[2], "`"+scenario["binary"]+"`") {
			t.Errorf("peak rates %s = %q, peaks.tsv's best scenario is %s", cells[0], cells[2], scenario["binary"])
		}
		checked++
	}
	if checked != len(want) {
		t.Errorf("peak rates table checks %d rows, want %d", checked, len(want))
	}
}
