package rdgc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocPointersResolve keeps README.md, DESIGN.md and EXPERIMENTS.md from
// pointing a reader at something the tree no longer has: every cmd/NAME is a
// directory, every `make TARGET` a Makefile target, and every Test…,
// Benchmark… or Fuzz… identifier a function in some _test.go file (followed
// by *, / or ( it is a prefix: `TestLAB*`, `BenchmarkParallelMark0/2/4`,
// `-bench 'BenchmarkParallel(Mark|Evac)'`).
func TestDocPointersResolve(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(read("Makefile"), -1) {
		targets[m[1]] = true
	}
	var funcs []string
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, run.sh's .bench_build
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range funcDecl.FindAllStringSubmatch(read(path), -1) {
				funcs = append(funcs, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cmdRef := regexp.MustCompile(`\bcmd/([A-Za-z0-9_-]+)`)
	makeRef := regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	funcRef := regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9]\w*)([*/(]?)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text := read(doc)
		for _, m := range cmdRef.FindAllStringSubmatch(text, -1) {
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s: %s is not a directory", doc, m[0])
			}
		}
		for _, m := range makeRef.FindAllStringSubmatch(text, -1) {
			if !targets[m[1]] {
				t.Errorf("%s: the Makefile has no target %q", doc, m[1])
			}
		}
		for _, m := range funcRef.FindAllStringSubmatch(text, -1) {
			name, prefix := m[1], m[2] != ""
			found := false
			for _, f := range funcs {
				if f == name || prefix && strings.HasPrefix(f, name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no _test.go file declares %s", doc, m[0])
			}
		}
	}
}
