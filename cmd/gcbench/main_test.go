package main

import (
	"encoding/csv"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestGCModeSpellings: each collector mode reaches the benchmark heaps the
// same way whether it is spelled as flags or as environment. The table's
// collectors are the copying ones and the pause log's the mark/sweep ones, so
// tenuring moves the first, -gcincr the second, and a worker count neither.
func TestGCModeSpellings(t *testing.T) {
	args := []string{"-quick", "-pauselog", "-"}
	def := cmdtest.Run(t, nil, args...)
	for _, m := range cmdtest.GCModes {
		// Allocation buffers make allocation-triggered collections fire
		// early by a schedule-dependent amount, so gcbench under -gclab is
		// not run-to-run identical (DESIGN.md "Block-structured heap"):
		// that mode is checked for its worker count alone.
		flags := slices.DeleteFunc(slices.Clone(m.Flags), func(s string) bool { return s == "-gclab" })
		env := slices.DeleteFunc(slices.Clone(m.Env), func(s string) bool { return s == "RDGC_GC_LAB=1" })
		byFlag := cmdtest.Run(t, nil, slices.Concat(flags, args)...)
		byEnv := cmdtest.Run(t, env, args...)
		if byFlag != byEnv {
			t.Errorf("%v and %v print different reports:\n%s\n--- vs ---\n%s", flags, env, byFlag, byEnv)
		}
		if moved := byFlag != def; moved == slices.Contains(flags, "-gcworkers") {
			t.Errorf("%v: report moved = %v:\n%s", flags, moved, byFlag)
		}
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
