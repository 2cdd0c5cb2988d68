package main

import (
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestTable4: one survival table, one row per age class, the same bytes
// every run.
func TestTable4(t *testing.T) {
	out := cmdtest.Run(t, nil, "-id", "table4")
	if !strings.HasPrefix(out, "== table4: ") || !strings.Contains(out, " to     older bytes old: ") {
		t.Errorf("not table4's header and age rows:\n%s", out)
	}
	if again := cmdtest.Run(t, nil, "-id", "table4"); again != out {
		t.Errorf("two runs print different bytes:\n%s\n--- vs ---\n%s", out, again)
	}
}

// TestBadFlagsAreUsageErrors: an experiment that does not exist, and a
// skyline width the renderer would turn into a 146 TB allocation request.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-id", "nonsense"}, `unknown experiment "nonsense"`},
		{[]string{"-ascii", "-width", "-5", "-id", "figure2"}, "survival: -width -5: "},
		{[]string{"-ascii", "-width", "0", "-id", "figure2"}, "survival: -width 0: "},
	} {
		stdout, stderr, status := cmdtest.Exit(t, nil, tc.args...)
		if status != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q; want status 2, no stdout, stderr naming %q",
				tc.args, status, stdout, stderr, tc.want)
		}
	}
}
