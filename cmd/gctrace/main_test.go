package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestReplayGCModeSpellings: the checked-in trace replays verifier-clean
// under every collector with no -gc* flag and with each mode's flags.
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

// TestSynthRefusalKeepsOutput: a synth command refused for a bad flag, a
// missing input or an -o that names its input leaves the file -o names as
// it was, and a synthesis that fails part-way leaves no partial output.
func TestSynthRefusalKeepsOutput(t *testing.T) {
	const in = "../../internal/trace/testdata/traces/mutator-s1.trace"
	dir := t.TempDir()
	out := filepath.Join(dir, "x.trace")
	cmdtest.Run(t, nil, "synth", "-op", "amplify", "-n", "2", "-o", out, in)
	want, err := os.ReadFile(out)
	if err != nil || len(want) == 0 {
		t.Fatalf("good synth wrote %d bytes: %v", len(want), err)
	}
	for _, args := range [][]string{
		{"-op", "splice", "-o", out, in},
		{"-op", "amplify", "-n", "0", "-o", out, in},
		{"-op", "amplify", "-n", "2", "-o", out, filepath.Join(dir, "missing.trace")},
		{"-op", "amplify", "-n", "2", "-o", out, out},
		{"-op", "interleave", "-o", out, in, out},
	} {
		if _, _, status := cmdtest.Exit(t, nil, append([]string{"synth"}, args...)...); status == 0 {
			t.Errorf("synth %v succeeded", args)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after synth %v, %s holds %d bytes (want %d): %v", args, out, len(got), len(want), err)
		}
	}

	// An input cut short fails only once synthesis has begun writing.
	cut := filepath.Join(dir, "cut.trace")
	if err := os.WriteFile(cut, want[:len(want)-3], 0o666); err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(dir, "partial.trace")
	if _, stderr, status := cmdtest.Exit(t, nil, "synth", "-op", "amplify", "-n", "2", "-o", partial, cut); status == 0 {
		t.Fatal("synth of a truncated input succeeded")
	} else if !strings.Contains(stderr, "truncated") {
		t.Errorf("synth of a truncated input: %s", stderr)
	}
	if _, err := os.Stat(partial); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed synth left %s behind: %v", partial, err)
	}
}
