package main

import (
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestBadFlagsAreUsageErrors: the values heap sizing and core.New panic on
// exit 2 with the reason on stderr and nothing on stdout.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-h", "0"}, {"-h", "NaN"}, {"-L", "1"}, {"-L", "Inf"}, {"-k", "1"}, {"-k", "-2"},
	} {
		stdout, stderr, status := cmdtest.Exit(t, nil, tc.flag, tc.value)
		if status != 2 || stdout != "" || !strings.HasPrefix(stderr, "stepviz: "+tc.flag+" ") {
			t.Errorf("%s %s: exit status %d, stdout %q, stderr %q", tc.flag, tc.value, status, stdout, stderr)
		}
	}
	if out := cmdtest.Run(t, nil, "-frames", "3"); strings.Count(out, "\n") < 5 {
		t.Errorf("default flags print no frames:\n%s", out)
	}
}
