package bench

import (
	"rdgc/internal/bench/boyer"
	"rdgc/internal/bench/dynamicw"
	"rdgc/internal/bench/dyninfer"
	"rdgc/internal/bench/lattice"
	"rdgc/internal/bench/nbody"
	"rdgc/internal/bench/nucleic"
)

// Standard returns the paper's benchmark suite at the scales Table 3 uses:
// nbody, nucleic2, lattice, 10dynamic, nboyer2, and sboyer2/3/4.
func Standard() []Program {
	l := lattice.New(4, 3)
	l.Repeat = 20
	return []Program{
		nbody.New(24, 60),
		nucleic.New(14, 2),
		l,
		dynamicw.New(10),
		dyninfer.New(10),
		boyer.New(2, false),
		boyer.New(2, true),
		boyer.New(3, true),
		boyer.New(4, true),
	}
}

// Quick returns reduced-scale instances for tests and smoke runs.
func Quick() []Program {
	q := dynamicw.New(2)
	q.PhaseWords = 30000
	return []Program{
		nbody.New(10, 10),
		nucleic.New(10, 2),
		lattice.New(3, 3),
		q,
		dyninfer.New(2),
		boyer.New(1, false),
		boyer.New(1, true),
	}
}

// Table2 returns the benchmark inventory: the paper's Table 2, with
// lines-of-code counts for the Go reimplementations (every line of the
// implementing package's non-test files; TestTable2Inventory recounts them).
func Table2() []Info {
	return []Info{
		{"nbody", 182, "inverse-square law simulation"},
		{"nucleic2", 131, "determination of nucleic acids' spatial structure"},
		{"lattice", 215, "enumeration of maps between lattices"},
		{"10dynamic", 141, "iterated phase computation (dynamic type inference substitute)"},
		{"nboyer", 480, "term rewriting and tautology checking"},
		{"sboyer", 480, "tweaked version of nboyer (shared consing)"},
	}
}
