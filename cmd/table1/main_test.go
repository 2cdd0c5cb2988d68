package main

import (
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestTable1: the worked trace ends on the paper's steady-state mark/cons
// ratio, and prints the same bytes every run.
func TestTable1(t *testing.T) {
	out := cmdtest.Run(t, nil)
	if !strings.Contains(out, "steady-state mark/cons: 0.2000 (paper: 1024/5120 = 0.2)\n") {
		t.Errorf("no steady-state mark/cons 0.2000 line:\n%s", out)
	}
	if again := cmdtest.Run(t, nil); again != out {
		t.Errorf("two runs print different bytes:\n%s\n--- vs ---\n%s", out, again)
	}
}

// TestNegativeCyclesIsUsageError: not a table of no rows with mark/cons
// 0.0000 under exit status 0.
func TestNegativeCyclesIsUsageError(t *testing.T) {
	stdout, stderr, status := cmdtest.Exit(t, nil, "-cycles", "-1")
	if status != 2 || stdout != "" || !strings.Contains(stderr, "table1: -cycles -1: ") {
		t.Errorf("exit status %d, stdout %q, stderr %q; want status 2, no stdout, stderr naming the flag", status, stdout, stderr)
	}
}
