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

// TestDocsNameRealCommands: every command the Markdown docs and the
// Makefile name as cmd/<name> is a directory under cmd/, so folding or
// renaming a binary cannot leave stale instructions behind. At the root
// only the documents that describe the tree as it is are scanned; the
// change log is history and names commands that were removed. Markdown
// files below the root are always scanned.
func TestDocsNameRealCommands(t *testing.T) {
	rootDocs := map[string]bool{
		"Makefile": true, "README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true,
		"ROADMAP.md": true, "PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true,
	}
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build"):
			return filepath.SkipDir
		case d.IsDir():
		case filepath.Dir(path) == "." && rootDocs[path],
			filepath.Dir(path) != "." && strings.HasSuffix(path, ".md"):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("scanned only %v; want the docs and the Makefile", files)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			var names []string
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				names = append(names, m[1])
			}
			for _, m := range cmdBracket.FindAllStringSubmatch(line, -1) {
				names = append(names, strings.Split(m[1], ",")...)
			}
			for _, name := range names {
				if st, err := os.Stat(filepath.Join("cmd", name)); err != nil || !st.IsDir() {
					t.Errorf("%s:%d names cmd/%s, which is not a command under cmd/", path, i+1, name)
				}
			}
		}
	}
}
