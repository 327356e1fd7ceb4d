package coherentleak

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// cmdRef matches `cmd/<name>` and `./cmd/<name>`, but not a path that
// merely ends in cmd/ (honnef.co/go/tools/cmd/staticcheck).
var (
	cmdRef     = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?cmd/([\w-]+)`)
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
// Makefile name as cmd/<name> is a directory under cmd/, so folding or
// renaming a binary cannot leave stale instructions behind.
func TestDocsNameRealCommands(t *testing.T) {
	forEachDocLine(t, func(path string, lineNo int, line string) {
		var names []string
		for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
			names = append(names, m[1])
		}
		for _, m := range cmdBracket.FindAllStringSubmatch(line, -1) {
			names = append(names, strings.Split(m[1], ",")...)
		}
		for _, name := range names {
			if st, err := os.Stat(filepath.Join("cmd", name)); err != nil || !st.IsDir() {
				t.Errorf("%s:%d names cmd/%s, which is not a command under cmd/", path, lineNo, name)
			}
		}
	})
}

var (
	testRef  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Z]\w*)\(`)
)

// TestDocsNameRealTests: every Test…, Benchmark… or Fuzz… identifier
// the scanned documents name is declared in some _test.go file, so
// deleting or renaming a test cannot leave a stale citation behind.
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
