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

// TestDocsNameNothingDeleted keeps prose from outliving the mechanism it
// describes: identifiers deleted from the tree (the heap's hook on object
// moves, the trace package's identity table, the per-space age tables; the
// parallel engines with their worker-count and allocation-buffer knobs, and
// the tests that replayed workloads on several heaps in their place; the
// hybrid's static area and the exports no non-test code reached; the
// per-collector collection epilogues that Heap.EndCollection replaced, with
// the pause mirrors and the adaptive controller's six unset parameters; the
// collectors' copies of the allocation ladders and remembered-set root
// closures that young.Gen and core.Steps replaced; the trace splice and
// time-scale operators with their tests; the heap checker's second parser and
// its tests, now that Check is the whole-heap Verify, and the verifier's
// separate remembered-set pass; the process-wide default Config, the
// environment it was read from and the per-package guards that held test
// heaps to it; trace format version 1's writer and the reader's window
// onto it; the hand lists of collectors, their sizes and the knobs they
// read, that the collector table replaced),
// and the hook by its plain name, may not be named
// by README.md, DESIGN.md or EXPERIMENTS.md — outside a section whose heading
// dates it to a PR or an issue, which is history and stays as written — nor
// by any Go file, where only a comment could still do it. The one exception
// is a test handing a deleted flag or environment variable to the program, in
// a string literal, to pin that it configures nothing any more.
func TestDocsNameNothingDeleted(t *testing.T) {
	deleted := regexp.MustCompile(`\b(SetMoveHook|idTable|EnsureAgeTable|AgeAt|SetAgeAt|[Mm]ove[- ]hook|` +
		`gcworkers|gclab|RDGC_GC_WORKERS|RDGC_GC_LAB|GCWorkersPerCell|ClampedWorkers|TryMarkAtomic|Space\.Waste|parevac|parmark|` +
		`PromoteAllToStatic|StaticWords|inStatic|staticKeep|staticBuf|ResetAll|ScheduleHook|Return2|SetConfig|IsFalse|IsImm|` +
		`CharWord|CharVal|UnspecWord|EOFWord|ClearMarkAt|SpaceSet\.Empty|SeedSurvival|SurvivalFractions|SurvivalProbability|` +
		`AvgObjectWords|CompareAll|ReadAllocMix|AllocMixClass|TestReadAllocMix\w*|parallelWorkerCounts|onHeaps|` +
		`TestParallel(Mark|Evac|Sweep|Shadow|Collection|SingleTarget)\w*|TestLAB\w*|TestCollectorsConcurrently|` +
		`TestDecayDeterministicUnderConcurrency|TestRecordReplayAtNWorkers|TestSpaceSetConcurrentReaders|` +
		`TotalPauseWords|MaxPauseWords|GCStats\.(AddPause|NoteLive)|notePeaks?|Heap\.AfterGC|` +
		`Alpha|MaxThreshold|TargetSurvival|MinSampleWords|Hysteresis|OldCopyCost|TestConfigDefaults|` +
		`allocDynamic|allocOld|npExtra|npScan|evacRoots|TimeScale|TestSpliceSelf|TestTimeScale|checkRemsets|checkFixture|` +
		`wantCheckError|TestCheck(MalformedHeader|StaleMark|BlockOverrun|DanglingPointerPastTop|PointerToNonHeader|` +
		`ReachableFreeBlock|UnknownSpace|IgnoresUnreachableGarbage)|SetDefaultConfig|DefaultConfig|ConfigFromEnv|` +
		`CheckEnvReachesHeaps|TestEnvReachesHeaps|RDGC_GC_(INCR|SLICE|TENURE|ADAPT)|[nN]ewWriterVersion|minReadVersion|` +
		`knobsRead|tenuringCollectors|sizedGrid|findCollector|replayGrid|collectorByName|CollectorNames|unknownCollector|` +
		`incrementalKnobs|tenuringKnobs|allKnobs|backReserved|reserveStep|reserveShadow|TestListedReservationReadsAsFreshStep)\b`)
	knob := regexp.MustCompile(`"-?(gcworkers|gclab|RDGC_GC_(WORKERS|LAB|INCR|SLICE|TENURE|ADAPT))\b[^"]*"`)
	heading := regexp.MustCompile(`^#+ `)
	dated := regexp.MustCompile(`\((PR|ISSUE) \d+`)
	check := func(path string, history func(line string) bool) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		test := strings.HasSuffix(path, "_test.go")
		for i, line := range strings.Split(string(b), "\n") {
			if test {
				line = knob.ReplaceAllString(line, `""`)
			}
			if m := deleted.FindString(line); !history(line) && m != "" {
				t.Errorf("%s:%d names %s, which no longer exists", path, i+1, m)
			}
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		inHistory := false
		check(doc, func(line string) bool {
			if heading.MatchString(line) {
				inHistory = dated.MatchString(line)
			}
			return inHistory
		})
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") && path != "docs_test.go" {
			check(path, func(string) bool { return false })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
