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

// Run runs the command with args, under the test's environment plus env,
// and returns its stdout. A non-zero exit fails the test with the command's
// stderr.
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
	cmd.Env = append(append(os.Environ(), reexec+"=1"), env...)
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

// GCModes are the -gc* flag spellings of the collector modes a driver's
// tests run it under.
var GCModes = [][]string{{"-gcincr"}, {"-gctenure", "3"}, {"-gcadapt"}}

// CheckGCSpellings runs the command once with no -gc* flag and once per
// entry of GCModes — the flags go between pre and post — failing the test
// on a non-zero exit. It returns the default run's output followed by one
// output per mode.
func CheckGCSpellings(t *testing.T, pre, post []string) []string {
	t.Helper()
	outs := []string{Run(t, nil, slices.Concat(pre, post)...)}
	for _, flags := range GCModes {
		outs = append(outs, Run(t, nil, slices.Concat(pre, flags, post)...))
	}
	return outs
}
