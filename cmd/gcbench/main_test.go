package main

import (
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestGCModeSpellings: each collector mode's flags reach the benchmark
// heaps. The table's collectors are the copying ones and the pause log's the
// mark/sweep ones, so tenuring moves the first and -gcincr the second: every
// mode moves the report.
func TestGCModeSpellings(t *testing.T) {
	outs := cmdtest.CheckGCSpellings(t, nil, []string{"-quick", "-pauselog", "-"})
	for i, out := range outs[1:] {
		if out == outs[0] {
			t.Errorf("%v: the report did not move:\n%s", cmdtest.GCModes[i], out)
		}
	}
}

// TestEnvironmentIsInert: the -gc* flags are the only way into the heaps'
// configuration, so the environment variables the flags used to default to
// leave the report as it is.
func TestEnvironmentIsInert(t *testing.T) {
	args := []string{"-quick", "-pauselog", "-"}
	plain := cmdtest.Run(t, nil, args...)
	if env := cmdtest.Run(t, []string{"RDGC_GC_INCR=1", "RDGC_GC_TENURE=3"}, args...); env != plain {
		t.Errorf("RDGC_GC_INCR=1 RDGC_GC_TENURE=3 moved the report:\n%s\n--- vs ---\n%s", env, plain)
	}
}

// TestPauseLog: -pauselog - streams the same CSV run after run, and slicing
// the mark/sweep collectors' collections lowers the largest pause.
func TestPauseLog(t *testing.T) {
	const header = "program,collector,incremental,slice_budget,seq,pause_words"
	maxPause := func(args ...string) uint64 {
		out := cmdtest.Run(t, nil, args...)
		if again := cmdtest.Run(t, nil, args...); again != out {
			t.Errorf("%v: two runs print different bytes", args)
		}
		_, log, ok := strings.Cut(out, header+"\n")
		if !ok {
			t.Fatalf("%v: no CSV header %q in:\n%s", args, header, out)
		}
		rows, err := csv.NewReader(strings.NewReader(log)).ReadAll()
		if err != nil || len(rows) == 0 {
			t.Fatalf("%v: %d pause rows, %v", args, len(rows), err)
		}
		var most uint64
		for _, row := range rows {
			words, err := strconv.ParseUint(row[5], 10, 64)
			if err != nil {
				t.Fatalf("%v: row %v: %v", args, row, err)
			}
			most = max(most, words)
		}
		return most
	}
	stw := maxPause("-quick", "-pauselog", "-")
	incr := maxPause("-quick", "-gcincr", "-pauselog", "-")
	if incr >= stw {
		t.Errorf("largest pause under -gcincr is %d words, not below the stop-the-world run's %d", incr, stw)
	}
}

// TestJSONCarriesPauseFields: -json parses, and every cell carries the pause
// distribution of its collector.
func TestJSONCarriesPauseFields(t *testing.T) {
	var cells []map[string]json.RawMessage
	if err := json.Unmarshal([]byte(cmdtest.Run(t, nil, "-quick", "-json")), &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	for _, c := range cells {
		for _, field := range []string{"pauses", "pause_p50_words", "pause_p99_words", "max_pause_words", "total_pause_words"} {
			if _, ok := c[field]; !ok {
				t.Errorf("cell %s/%s has no %q", c["program"], c["collector"], field)
			}
		}
	}
}
