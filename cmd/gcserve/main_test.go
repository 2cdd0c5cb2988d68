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
