package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/heap"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

const seedFile = "../../internal/gc/gcfuzz/testdata/fuzz/FuzzCollectors/seed-tenure-churn"

func TestGCModeSpellings(t *testing.T) {
	for i, out := range cmdtest.CheckGCSpellings(t, nil, []string{seedFile}) {
		if !strings.Contains(out, "all properties hold") {
			t.Errorf("run %d:\n%s", i, out)
		}
	}
}

// TestReplaysUnderEveryMode: whatever mode the fuzz target found a crasher
// in, the command's flags can name it.
func TestReplaysUnderEveryMode(t *testing.T) {
	data, err := os.ReadFile(seedFile)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := gcfuzz.UnmarshalCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range gcfuzz.Modes(heap.Config{}, prog) {
		c := m.Config
		out := cmdtest.Run(t, nil,
			fmt.Sprintf("-gcincr=%v", c.Incremental), "-gcslice", fmt.Sprint(c.SliceBudget),
			"-gctenure", fmt.Sprint(c.Tenure), fmt.Sprintf("-gcadapt=%v", c.Adaptive), seedFile)
		if !strings.Contains(out, "all properties hold") {
			t.Errorf("%s (%+v):\n%s", m.Name, c, out)
		}
	}
}

// TestEmitTraceUnderAnyConfig: a trace names allocation ordinals, never
// addresses, and the recorder shares the heap's identity table with the age
// oracle a tenuring run attaches, so -emit-trace writes the bytes of the
// zero-Config run whatever the -gc* flags say — tenured, adaptive,
// incremental, raw and compressed.
func TestEmitTraceUnderAnyConfig(t *testing.T) {
	dir := t.TempDir()
	emit := func(seed string, flags ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, "t.trace")
		args := append(flags, "-emit-trace", out, filepath.Join(filepath.Dir(seedFile), seed))
		if stdout := cmdtest.Run(t, nil, args...); !strings.Contains(stdout, "trace written to") || !strings.Contains(stdout, "all properties hold") {
			t.Fatalf("%v:\n%s", args, stdout)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i, seed := range []string{"seed-tenure-churn", "seed-aging-wave", "seed-gc-heavy"} {
		for _, compress := range [][]string{nil, {"-compress"}}[:2-min(i, 1)] { // compressed: the first program only
			want := emit(seed, compress...)
			for _, mode := range [][]string{{"-gctenure", "6"}, {"-gcadapt"}, {"-gcincr"}, {"-gcincr", "-gctenure", "3"}} {
				if got := emit(seed, append(mode, compress...)...); !bytes.Equal(got, want) {
					t.Errorf("%s %v %v: wrote %d bytes that differ from the zero Config's %d", seed, mode, compress, len(got), len(want))
				}
			}
		}
	}
}
