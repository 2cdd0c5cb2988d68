package main

import (
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestGCModeSpellings: each collector mode reaches the shard heaps the same
// way whether it is spelled as flags or as environment, and the report
// header names it.
func TestGCModeSpellings(t *testing.T) {
	outs := cmdtest.CheckGCSpellings(t, []string{
		"-collector", "generational", "-shards", "2", "-horizon", "6000", "-heap", "8192", "-seed", "7",
	}, nil)
	for i, want := range []string{
		"gcworkers=1 incr=off adapt=off tenure=1",
		"gcworkers=1 incr=on adapt=off tenure=1",
		"gcworkers=1 incr=off adapt=off tenure=3",
		"gcworkers=1 incr=off adapt=on tenure=1",
		"gcworkers=4 incr=off adapt=off tenure=1",
	} {
		if !strings.Contains(outs[i], want) {
			t.Errorf("run %d: report does not say %q:\n%s", i, want, outs[i])
		}
	}
}

// TestNegativeSizingIsUsageError: not a makeslice panic out of serve.Run
// (-shards), a report of zero latencies (-wpt), or a silently substituted
// heap (-heap).
func TestNegativeSizingIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-shards", "-1"}, {"-wpt", "-3"}, {"-heap", "-5"}} {
		stdout, stderr, status := cmdtest.Exit(t, nil, append(args, "-horizon", "2000")...)
		want := "gcserve: " + args[0] + " " + args[1] + ": "
		if status != 2 || stdout != "" || !strings.Contains(stderr, want) {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q; want status 2, no stdout, stderr naming %q",
				args, status, stdout, stderr, want)
		}
	}
}
