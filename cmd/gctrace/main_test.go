package main

import (
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestReplayGCModeSpellings: each collector mode reaches the replay heaps
// the same way whether it is spelled as flags or as environment, and the
// checked-in trace replays verifier-clean under every collector in each.
func TestReplayGCModeSpellings(t *testing.T) {
	outs := cmdtest.CheckGCSpellings(t,
		[]string{"replay", "-verify"},
		[]string{"../../internal/trace/testdata/traces/mutator-s1.trace"})
	for i, out := range outs {
		if n := strings.Count(out, " ok "); n != 7 || strings.Contains(out, "FAIL") {
			t.Errorf("run %d: %d of 7 collectors replayed ok:\n%s", i, n, out)
		}
	}
}
