package main

import (
	"regexp"
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestGridShape runs the g × L sweep and checks that it prints one row per
// generation fraction, each with a measured/predicted pair per load factor.
func TestGridShape(t *testing.T) {
	out := cmdtest.Run(t, nil)
	row := regexp.MustCompile(`(?m)^ +(0\.[1-5]0)( +\d+\.\d\d/\d+\.\d\d\*?){3} *$`)
	rows := row.FindAllStringSubmatch(out, -1)
	var gs []string
	for _, r := range rows {
		gs = append(gs, r[1])
	}
	if strings.Join(gs, " ") != "0.10 0.20 0.30 0.40 0.50" {
		t.Fatalf("want rows for g = 0.10..0.50, got %v:\n%s", gs, out)
	}
	if !strings.HasPrefix(out, "relative mark/cons overhead (non-predictive / mark-sweep)\n") {
		t.Errorf("missing title line:\n%s", out)
	}
}
