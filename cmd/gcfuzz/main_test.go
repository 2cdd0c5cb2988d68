package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
	"rdgc/internal/gc/gcfuzz"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

const seedFile = "../../internal/gc/gcfuzz/testdata/fuzz/FuzzCollectors/seed-tenure-churn"

func TestGCModeSpellings(t *testing.T) {
	for i, out := range cmdtest.CheckGCSpellings(t, nil, []string{seedFile}) {
		if !strings.Contains(out, "all properties hold") {
			t.Errorf("run %d:\n%s", i, out)
		}
	}
}

// TestReplaysUnderEveryMode: whatever mode the fuzz target found a crasher
// in, the command's flags can name it.
func TestReplaysUnderEveryMode(t *testing.T) {
	data, err := os.ReadFile(seedFile)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := gcfuzz.UnmarshalCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range gcfuzz.Modes(prog) {
		c := m.Config
		out := cmdtest.Run(t, nil,
			"-gcworkers", fmt.Sprint(c.Workers), fmt.Sprintf("-gclab=%v", c.LAB),
			fmt.Sprintf("-gcincr=%v", c.Incremental), "-gcslice", fmt.Sprint(c.SliceBudget),
			"-gctenure", fmt.Sprint(c.Tenure), fmt.Sprintf("-gcadapt=%v", c.Adaptive), seedFile)
		if !strings.Contains(out, "all properties hold") {
			t.Errorf("%s (%+v):\n%s", m.Name, c, out)
		}
	}
}
