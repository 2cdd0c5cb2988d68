package main

import (
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestBadFlagsAreUsageErrors: a value the curves or the simulation cannot
// run on is a usage error — exit status 2, the reason on stderr, nothing on
// stdout — not a NaN row or a "bad -L" line in the CSV under exit status 0.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-L", "2,x"}, "figure1: -L: "},
		{[]string{"-sim", "-h", "0", "-L", "2", "-simpoints", "1", "-steps", "100"}, "figure1: -h 0: "},
		{[]string{"-L", "1"}, "figure1: -L 1: "},
		{[]string{"-L", "NaN"}, "figure1: -L NaN: "},
		{[]string{"-points", "0"}, "figure1: -points 0: "},
		{[]string{"-simpoints", "-1"}, "figure1: -simpoints -1: "},
		{[]string{"-steps", "0"}, "figure1: -steps 0: "},
	} {
		stdout, stderr, status := cmdtest.Exit(t, nil, tc.args...)
		if status != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q; want status 2, no stdout, stderr naming %q",
				tc.args, status, stdout, stderr, tc.want)
		}
	}
}

// TestFailedCellIsReported: a simulated cell that dies (here a heap too
// small for one object) ends the run with exit status 1 and the cell's error
// on stderr, and no simulated row is printed from its zero Result.
func TestFailedCellIsReported(t *testing.T) {
	stdout, stderr, status := cmdtest.Exit(t, nil, "-sim", "-L", "1.5", "-h", "0.01", "-points", "2", "-simpoints", "1", "-steps", "100")
	if status != 1 || !strings.Contains(stderr, "figure1: cell ") || strings.Contains(stdout, "simulated") {
		t.Errorf("exit status %d, stderr %q, stdout:\n%s", status, stderr, stdout)
	}
}

// TestSimulatedPoints: the happy path prints one measured row per (L, g).
func TestSimulatedPoints(t *testing.T) {
	out := cmdtest.Run(t, nil, "-sim", "-L", "3.5", "-h", "64", "-points", "2", "-simpoints", "2", "-steps", "2000")
	_, rows, ok := strings.Cut(out, "L,g,relative_overhead_measured\n")
	if !ok || strings.Count(rows, "\n") != 2 || strings.Contains(rows, "NaN") {
		t.Errorf("want two measured rows after the header:\n%s", out)
	}
}
