package main

import (
	"math"
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestBadFlagsAreUsageErrors: a heap shape no cell can run on is a usage
// error — exit status 2, the reason on stderr, nothing on stdout — not a
// table of NaN rows under exit status 0, a cell that dies after three good
// rows, or a g the step machine silently clamps.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-steps", "-1"}, "rdmsim: -steps -1: "},
		{[]string{"-steps", "0"}, "rdmsim: -steps 0: "},
		{[]string{"-k", "1"}, "rdmsim: -k 1: "},
		{[]string{"-g", "2"}, "rdmsim: -g 2: "},
		{[]string{"-g", "1"}, "rdmsim: -g 1: "},
		{[]string{"-g", "-0.1"}, "rdmsim: -g -0.1: "},
		{[]string{"-g", "NaN"}, "rdmsim: -g NaN: "},
		{[]string{"-L", "1"}, "rdmsim: -L 1: "},
		{[]string{"-L", "NaN"}, "rdmsim: -L NaN: "},
		{[]string{"-L", "Inf"}, "rdmsim: -L +Inf: "},
		{[]string{"-h", "0"}, "rdmsim: -h 0: "},
	} {
		stdout, stderr, status := cmdtest.Exit(t, nil, tc.args...)
		if status != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q; want status 2, no stdout, stderr naming %q",
				tc.args, status, stdout, stderr, tc.want)
		}
	}
}

// TestSmallestGrid: the bounds themselves run — two steps, g = 0, one
// measured allocation — and print no NaN.
func TestSmallestGrid(t *testing.T) {
	out := cmdtest.Run(t, nil, "-all", "-k", "2", "-g", "0", "-steps", "1", "-h", "64")
	if strings.Count(out, "mark/cons") < 7 || strings.Contains(out, "NaN") {
		t.Errorf("want seven measured rows and no NaN:\n%s", out)
	}
}

func TestCheckLifetimes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		h, infant, infantH float64
		ok                 bool
	}{
		{1024, 0, 0, true},
		{0.5, 0, 0, true},
		{1024, 0.9, 16, true},
		{1024, 0, nan, true}, // the infant half-life is unused at -infant 0
		{nan, 0, 0, false},
		{inf, 0, 0, false},
		{0, 0, 0, false},
		{-3, 0, 0, false},
		{1024, nan, 16, false},
		{1024, -0.1, 16, false},
		{1024, 1.1, 16, false},
		{1024, 0.5, nan, false},
		{1024, 0.5, inf, false},
		{1024, 0.5, -16, false},
	} {
		if err := checkLifetimes(tc.h, tc.infant, tc.infantH); (err == nil) != tc.ok {
			t.Errorf("checkLifetimes(%g, %g, %g) = %v, want ok = %v", tc.h, tc.infant, tc.infantH, err, tc.ok)
		}
	}
}
