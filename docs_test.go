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
	var rows [][]string
	for _, line := range strings.Split(experimentsSection(t, heading), "\n") {
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

// experimentsSection returns the text of EXPERIMENTS.md's first section
// whose heading starts with heading, up to the next section.
func experimentsSection(t *testing.T, heading string) string {
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
	return section
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

// fig2Cell matches a Figure 2 measured cell, "98.2 (93..106)".
var fig2Cell = regexp.MustCompile(`^([0-9]+\.[0-9]+) \(([0-9]+)\.\.([0-9]+)\)$`)

// TestFig2TableMatchesTSV: every placement row of EXPERIMENTS.md's
// Figure 2 table prints the mean, min and max of that placement's CDF
// in results/fig2_cdf.tsv, and the table covers every placement. The
// mean is the sum of latency × CDF step; min and max are the first and
// last latencies. The DRAM row has no TSV source and must say so.
func TestFig2TableMatchesTSV(t *testing.T) {
	type band struct{ mean, min, max, cdf float64 }
	bands := map[string]*band{}
	for _, f := range tsvRows(t, "results/fig2_cdf.tsv") {
		if len(f) != 3 {
			t.Fatalf("fig2_cdf.tsv row %q: want 3 fields", f)
		}
		lat, err1 := strconv.ParseFloat(f[1], 64)
		cdf, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("fig2_cdf.tsv row %q: not numbers", f)
		}
		b, ok := bands[f[0]]
		if !ok {
			b = &band{min: lat}
			bands[f[0]] = b
		}
		b.mean += lat * (cdf - b.cdf)
		b.max, b.cdf = lat, cdf
	}
	placements := map[string]string{
		"Local Shared": "LShared", "Local Exclusive": "LExcl",
		"Remote Shared": "RShared", "Remote Exclusive": "RExcl",
	}
	checked := 0
	for _, cells := range experimentsTable(t, "§V / Figure 2") {
		if cells[0] == "Combination" {
			continue
		}
		if len(cells) != 3 {
			t.Errorf("Figure 2 row %q: want 3 cells", cells)
			continue
		}
		name, _, _ := strings.Cut(cells[0], " (")
		b, ok := bands[placements[name]]
		if !ok {
			if !strings.HasSuffix(cells[2], "(not in the TSV)") {
				t.Errorf("Figure 2 row %q: no placement in fig2_cdf.tsv, and the row does not say so", cells[0])
			}
			continue
		}
		m := fig2Cell.FindStringSubmatch(cells[2])
		if m == nil || !printedAs(m[1], b.mean) || !printedAs(m[2], b.min) || !printedAs(m[3], b.max) {
			t.Errorf("Figure 2 %s = %q, fig2_cdf.tsv gives %.1f (%.0f..%.0f)", name, cells[2], b.mean, b.min, b.max)
		}
		checked++
	}
	if checked != len(bands) {
		t.Errorf("Figure 2 table checks %d placements, fig2_cdf.tsv has %d", checked, len(bands))
	}
}

// fig9Error matches Figure 9's summary of the 8-thread error, and
// fig9Named a scenario's accuracy quoted in the prose.
var (
	fig9Error = regexp.MustCompile(`costs ([0-9.]+)% mean error\s+\(range ([0-9.]+)–([0-9.]+)% per scenario\)`)
	fig9Named = regexp.MustCompile("`([A-Za-z]+-[A-Za-z]+)`\\s+([0-9.]+)%")
)

// TestFig9TableMatchesTSV: every accuracy in EXPERIMENTS.md's Figure 9
// table, the mean row and the prose's error summary equal
// results/fig9_noise_accuracy.tsv at the precision they are printed
// with, and the table covers every scenario at every noise level.
func TestFig9TableMatchesTSV(t *testing.T) {
	acc := map[string]map[string]float64{} // scenario -> threads -> accuracy in %
	for _, f := range tsvRows(t, "results/fig9_noise_accuracy.tsv") {
		if len(f) != 4 {
			t.Fatalf("fig9_noise_accuracy.tsv row %q: want 4 fields", f)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if acc[f[0]] == nil {
			acc[f[0]] = map[string]float64{}
		}
		acc[f[0]][f[1]] = 100 * v
	}
	mean := map[string]float64{}
	most, mostN := "", -1 // the most noise threads: the point the prose sums up
	for _, byThreads := range acc {
		for n, v := range byThreads {
			mean[n] += v / float64(len(acc))
			if k, _ := strconv.Atoi(n); k > mostN {
				most, mostN = n, k
			}
		}
	}

	rows := experimentsTable(t, "Figure 9")
	if len(rows) == 0 || rows[0][0] != "Scenario" {
		t.Fatalf("Figure 9 table: want a Scenario header row, got %q", rows)
	}
	threads := rows[0][1:]
	checked := 0
	for _, cells := range rows[1:] {
		want, ok := acc[cells[0]]
		if cells[0] == "mean" {
			want, ok = mean, true
		}
		if !ok || len(cells) != len(rows[0]) {
			t.Errorf("Figure 9 row %q: not a fig9_noise_accuracy.tsv scenario with %d cells", cells, len(rows[0]))
			continue
		}
		for i, n := range threads {
			num, pct := strings.CutSuffix(cells[i+1], "%")
			if v, ok := want[n]; !ok || !pct || !printedAs(num, v) {
				t.Errorf("Figure 9 %s at %s threads = %q, fig9_noise_accuracy.tsv gives %.2f%%", cells[0], n, cells[i+1], v)
			}
			checked++
		}
	}
	if len(threads) != len(mean) || checked != (len(acc)+1)*len(mean) {
		t.Errorf("Figure 9 table checks %d cells over %d noise levels; want %d scenarios and the mean at %d levels",
			checked, len(threads), len(acc), len(mean))
	}

	prose := experimentsSection(t, "Figure 9")
	m := fig9Error.FindStringSubmatch(prose)
	lo, hi := 100.0, 0.0
	for _, byThreads := range acc {
		lo, hi = min(lo, 100-byThreads[most]), max(hi, 100-byThreads[most])
	}
	if m == nil || !printedAs(m[1], 100-mean[most]) || !printedAs(m[2], lo) || !printedAs(m[3], hi) {
		t.Errorf("Figure 9 prose %q; at %s threads the TSV gives %.1f%% mean error, range %.1f–%.1f%%", m, most, 100-mean[most], lo, hi)
	}
	for _, m := range fig9Named.FindAllStringSubmatch(prose, -1) {
		if v, ok := acc[m[1]][most]; !ok || !printedAs(m[2], v) {
			t.Errorf("Figure 9 prose quotes %s at %s%%; at %s threads the TSV gives %.1f%%", m[1], m[2], most, v)
		}
	}
}

// fig10Raw and fig10Cost match Figure 10's prose: the raw-rate range
// and the quiet-rate cost.
var (
	fig10Raw  = regexp.MustCompile(`raw rate \(([0-9.]+)–([0-9.]+)\)`)
	fig10Cost = regexp.MustCompile(`([0-9.]+)–([0-9.]+)% quiet-rate`)
)

// TestFig10TableMatchesTSV: every rate, retransmission count and
// recovery in EXPERIMENTS.md's Figure 10 table, and the prose's raw-rate
// range and quiet-rate cost, equal results/fig10_ecc.tsv at the precision
// they are printed with, and the table covers every scenario.
func TestFig10TableMatchesTSV(t *testing.T) {
	type run struct {
		raw, eff  float64
		retx, rec string
	}
	runs := map[string]map[string]run{} // scenario -> threads -> run
	for _, f := range tsvRows(t, "results/fig10_ecc.tsv") {
		if len(f) != 6 {
			t.Fatalf("fig10_ecc.tsv row %q: want 6 fields", f)
		}
		raw, err1 := strconv.ParseFloat(f[2], 64)
		eff, err2 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("fig10_ecc.tsv row %q: not numbers", f)
		}
		if runs[f[0]] == nil {
			runs[f[0]] = map[string]run{}
		}
		runs[f[0]][f[1]] = run{raw, eff, f[4], f[5]}
	}

	rows := experimentsTable(t, "Figure 10")
	header := []string{"Scenario", "raw", "none (0)", "medium (4)", "high (8)", "retransmissions", "recovered"}
	if len(rows) == 0 || strings.Join(rows[0], "|") != strings.Join(header, "|") {
		t.Fatalf("Figure 10 table: want header %q, got %q", header, rows)
	}
	threads := []string{"0", "4", "8"} // the noise levels of header[2:5]
	checked := 0
	for _, cells := range rows[1:] {
		byThreads, ok := runs[cells[0]]
		if !ok || len(cells) != len(header) || len(byThreads) != len(threads) {
			t.Errorf("Figure 10 row %q: not a fig10_ecc.tsv scenario at %v threads with %d cells", cells, threads, len(header))
			continue
		}
		var retx []string
		recovered := "yes"
		for i, n := range threads {
			r, ok := byThreads[n]
			if !ok || !printedAs(cells[1], r.raw) || !printedAs(cells[i+2], r.eff) {
				t.Errorf("Figure 10 %s at %s threads: raw %s, effective %s; fig10_ecc.tsv gives %v", cells[0], n, cells[1], cells[i+2], r)
			}
			retx = append(retx, r.retx)
			if r.rec != "true" {
				recovered = "no"
			}
		}
		if got := strings.Join(retx, "/"); cells[5] != got || cells[6] != recovered {
			t.Errorf("Figure 10 %s: retransmissions %s, recovered %s; fig10_ecc.tsv gives %s, %s", cells[0], cells[5], cells[6], got, recovered)
		}
		checked++
	}
	if checked != len(runs) {
		t.Errorf("Figure 10 table checks %d scenarios, fig10_ecc.tsv has %d", checked, len(runs))
	}

	prose := experimentsSection(t, "Figure 10")
	rawLo, rawHi, costLo, costHi := math.Inf(1), 0.0, math.Inf(1), 0.0
	for _, byThreads := range runs {
		r := byThreads[threads[0]]
		rawLo, rawHi = min(rawLo, r.raw), max(rawHi, r.raw)
		cost := 100 * (r.raw - r.eff) / r.raw
		costLo, costHi = min(costLo, cost), max(costHi, cost)
	}
	if m := fig10Raw.FindStringSubmatch(prose); m == nil || !printedAs(m[1], rawLo) || !printedAs(m[2], rawHi) {
		t.Errorf("Figure 10 prose raw rate %q; fig10_ecc.tsv gives %.1f–%.1f", m, rawLo, rawHi)
	}
	if m := fig10Cost.FindStringSubmatch(prose); m == nil || !printedAs(m[1], costLo) || !printedAs(m[2], costHi) {
		t.Errorf("Figure 10 prose quiet-rate cost %q; fig10_ecc.tsv gives %.2f–%.2f%%", m, costLo, costHi)
	}
}
