package main

import (
	"regexp"
	"testing"

	"rdgc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestReportShape runs both programs under the growing hybrid and checks
// that each prints its header, volume, collector-work, remembered-set and
// survival lines, with a survival table under it.
func TestReportShape(t *testing.T) {
	out := cmdtest.Run(t, nil)
	block := regexp.MustCompile(`== (nboyer2|sboyer2) under hybrid \(ephemeral \+ non-predictive\)\n` +
		`   allocated \d+\.\d\d Mwords, \d+ rewrites\n` +
		`   \d+ collections \(\d+ non-predictive\), \d+ words copied, mark/cons \d+\.\d{3}\n` +
		`   remembered sets: \d+ into-nursery, \d+ young-to-old; peak \d+\n` +
		`   survival by age \(500,000-byte epochs\):\n` +
		`(     age \[\d+,(\d+|∞)\) epochs: +\d+% survives the next epoch \(\d+ of \d+ words\)\n)+\n`)
	got := block.FindAllStringSubmatch(out, -1)
	if len(got) != 2 || got[0][1] != "nboyer2" || got[1][1] != "sboyer2" {
		t.Fatalf("want an nboyer2 and an sboyer2 report, got:\n%s", out)
	}
	if whole := block.ReplaceAllString(out, ""); whole != "" {
		t.Errorf("output outside the two reports:\n%s", whole)
	}
}
