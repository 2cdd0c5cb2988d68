// Package cmdtest lets a command's own test binary stand in for the command,
// so a package main is smoke-tested end to end — flags, environment, exit
// status, stdout — without building anything the test run has not built.
package cmdtest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

const reexec = "RDGC_CMDTEST_REEXEC"

// Main is the TestMain of a package main: in a process started by Run it
// becomes the command itself.
func Main(m *testing.M, main func()) {
	if os.Getenv(reexec) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run runs the command with args, under the test's environment less every
// RDGC_GC_* variable plus env, and returns its stdout. A non-zero exit
// fails the test with the command's stderr.
func Run(t *testing.T, env []string, args ...string) string {
	t.Helper()
	stdout, stderr, status := Exit(t, env, args...)
	if status != 0 {
		t.Fatalf("%v under %v: exit status %d\n%s", args, env, status, stderr)
	}
	return stdout
}

// Exit is Run for a command that is expected to fail: it returns stdout,
// stderr and the exit status, and fails the test only if the command could
// not be run at all.
func Exit(t *testing.T, env []string, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "RDGC_GC_") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(append(cmd.Env, reexec+"=1"), env...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("%v under %v: %v", args, env, err)
		}
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// GCModes spells each collector mode both ways a driver takes it: as -gc*
// flags and as RDGC_GC_* variables.
var GCModes = []struct{ Flags, Env []string }{
	{[]string{"-gcincr"}, []string{"RDGC_GC_INCR=1"}},
	{[]string{"-gctenure", "3"}, []string{"RDGC_GC_TENURE=3"}},
	{[]string{"-gcadapt"}, []string{"RDGC_GC_ADAPT=1"}},
	{[]string{"-gcworkers", "4", "-gclab"}, []string{"RDGC_GC_WORKERS=4", "RDGC_GC_LAB=1"}},
}

// CheckGCSpellings runs the command once per entry of GCModes in each
// spelling — the flags go between pre and post — and fails unless the two
// print the same bytes. It returns the default run's output followed by one
// output per mode.
func CheckGCSpellings(t *testing.T, pre, post []string) []string {
	t.Helper()
	outs := []string{Run(t, nil, slices.Concat(pre, post)...)}
	for _, m := range GCModes {
		byFlag := Run(t, nil, slices.Concat(pre, m.Flags, post)...)
		byEnv := Run(t, m.Env, slices.Concat(pre, post)...)
		if byFlag != byEnv {
			t.Errorf("%v and %v print different reports:\n%s\n--- vs ---\n%s", m.Flags, m.Env, byFlag, byEnv)
		}
		outs = append(outs, byFlag)
	}
	return outs
}
