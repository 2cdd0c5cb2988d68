package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdgc/internal/bench"
	"rdgc/internal/bench/boyer"
	"rdgc/internal/bench/dynamicw"
	"rdgc/internal/bench/lattice"
	"rdgc/internal/bench/nbody"
	"rdgc/internal/bench/nucleic"
)

// table3Makers builds reduced-scale instances of each Table 3 program so
// the whole table runs in test time; the shape assertions don't depend on
// scale.
func table3Makers() map[string]func() bench.Program {
	return map[string]func() bench.Program{
		"nbody":    func() bench.Program { return nbody.New(16, 30) },
		"nucleic2": func() bench.Program { return nucleic.New(12, 2) },
		"lattice": func() bench.Program {
			l := lattice.New(4, 3)
			l.Repeat = 3
			return l
		},
		"10dynamic": func() bench.Program { return dynamicw.New(6) },
		"nboyer":    func() bench.Program { return boyer.New(2, false) },
		"sboyer":    func() bench.Program { return boyer.New(2, true) },
	}
}

func TestTable3Shape(t *testing.T) {
	cfg := DefaultTable3Config()
	rows := map[string]Table3Row{}
	for name, mk := range table3Makers() {
		row, err := RunTable3Row(mk, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows[name] = row
		t.Logf("%-10s alloc %8.2f Mw peak %7.0f Kw  sc %5.1f%%  gen %5.1f%%",
			name, float64(row.AllocWords)/1e6, float64(row.PeakWords)/1e3,
			100*row.GCRatioSC(), 100*row.GCRatioGen())
	}

	// The paper's qualitative content: the generational collector beats
	// stop-and-copy on the die-young programs...
	for _, name := range []string{"nbody", "nucleic2", "lattice", "sboyer"} {
		r := rows[name]
		if r.GCRatioGen() >= r.GCRatioSC() {
			t.Errorf("%s: generational (%.1f%%) should beat stop-and-copy (%.1f%%)",
				name, 100*r.GCRatioGen(), 100*r.GCRatioSC())
		}
	}
	// ...and loses on 10dynamic, whose phase survivors defeat the weak
	// generational hypothesis.
	r := rows["10dynamic"]
	if r.GCRatioGen() <= r.GCRatioSC() {
		t.Errorf("10dynamic: generational (%.1f%%) should lose to stop-and-copy (%.1f%%)",
			100*r.GCRatioGen(), 100*r.GCRatioSC())
	}

	// sboyer's shared consing slashes allocation relative to nboyer.
	if rows["sboyer"].AllocWords*2 >= rows["nboyer"].AllocWords {
		t.Errorf("sboyer alloc %d not well below nboyer %d",
			rows["sboyer"].AllocWords, rows["nboyer"].AllocWords)
	}
}

// TestTable2Inventory: each Table 2 row's line count is the number of lines
// in the non-test .go files of the package that implements it.
func TestTable2Inventory(t *testing.T) {
	pkgOf := map[string]string{
		"nbody":     "nbody",
		"nucleic2":  "nucleic",
		"lattice":   "lattice",
		"10dynamic": "dynamicw",
		"nboyer":    "boyer",
		"sboyer":    "boyer",
	}
	infos := bench.Table2()
	if len(infos) != len(pkgOf) {
		t.Fatalf("Table 2 has %d rows, want %d", len(infos), len(pkgOf))
	}
	seen := map[string]bool{}
	for _, i := range infos {
		if i.Name == "" || i.Description == "" {
			t.Errorf("malformed row %+v", i)
		}
		if seen[i.Name] {
			t.Errorf("duplicate row %s", i.Name)
		}
		seen[i.Name] = true
		pkg, ok := pkgOf[i.Name]
		if !ok {
			t.Errorf("row %s names no known package", i.Name)
			continue
		}
		files, err := filepath.Glob(filepath.Join("..", "bench", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no sources for package %s (%v)", i.Name, pkg, err)
		}
		lines := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(b, []byte("\n"))
		}
		if i.Lines != lines {
			t.Errorf("%s: Table 2 says %d lines, internal/bench/%s has %d", i.Name, i.Lines, pkg, lines)
		}
	}
}

func TestQuickSuiteRunsEverywhere(t *testing.T) {
	for _, p := range bench.Quick() {
		mk := p
		peak, alloc, err := MeasurePeak(mk, DefaultTable3Config())
		if err != nil {
			t.Errorf("%s: %v", mk.Name(), err)
			continue
		}
		if peak <= 0 || alloc == 0 {
			t.Errorf("%s: degenerate measurement peak=%d alloc=%d", mk.Name(), peak, alloc)
		}
	}
}
