package main

import (
	"regexp"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestOutputShape runs the walkthrough and checks its four lines: the list,
// the mutated head, the collector's counters and the surviving list.
func TestOutputShape(t *testing.T) {
	out := cmdtest.Run(t, nil)
	want := regexp.MustCompile(`^list length: 10\n` +
		`new head: 42\n` +
		`allocated \d+ words; \d+ collections copied \d+ words \(mark/cons \d+\.\d{3}\)\n` +
		`current j = \d+ of k = \d+ steps; the list survived: length 10\n$`)
	if !want.MatchString(out) {
		t.Errorf("unexpected output:\n%s", out)
	}
}
