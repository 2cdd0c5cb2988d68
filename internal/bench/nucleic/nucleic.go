// Package nucleic implements the nucleic2 benchmark of Table 2: the
// determination of a nucleic acid's spatial structure by constraint-driven
// backtracking search over candidate conformations. The paper traces its
// GC cost to the same cause as nbody's — every floating-point value is a
// 16-byte boxed flonum — with a somewhat higher survival rate because
// partial placements persist across search branches.
//
// This reproduction keeps the search's shape — a domain of precomputed
// rigid-body transformations per residue, backtracking placement with a
// distance-constraint pruning test, boxed-flonum geometry throughout — over
// synthetic conformation tables instead of the RNA data. DESIGN.md records
// the substitution.
package nucleic

import (
	"fmt"
	"math"
	"math/rand"

	"rdgc/internal/heap"
)

// Prog is one search configuration.
type Prog struct {
	Residues      int     // placement decisions
	Conformations int     // domain size per residue
	MaxDist       float64 // pruning constraint between consecutive residues
	Seed          int64
	// KeepSolutions bounds the ring of retained complete placements. The
	// real nucleic2 keeps the structures it reports, which is what pushes
	// its peak storage toward a megabyte; retained placements share their
	// path prefixes, like the search tree itself.
	KeepSolutions int

	// Solutions is the number of complete placements found by Run.
	Solutions int
}

// New creates a paper-shaped instance.
func New(residues, conformations int) *Prog {
	return &Prog{Residues: residues, Conformations: conformations, MaxDist: 1.05, Seed: 1, KeepSolutions: 64}
}

// Name implements bench.Program.
func (p *Prog) Name() string { return "nucleic2" }

// HeapWords implements bench.Program.
func (p *Prog) HeapWords() int { return 1 << 16 }

// Run implements bench.Program.
func (p *Prog) Run(h *heap.Heap) error {
	rng := rand.New(rand.NewSource(p.Seed))
	s := h.Scope()
	defer s.Close()

	// The conformation table: per residue, Conformations candidate offset
	// triples as heap flonum vectors. Long-lived, like nucleic2's constant
	// tables of rigid-body transformations.
	domains := h.MakeVector(p.Residues, h.Null())
	for r := 0; r < p.Residues; r++ {
		s2 := h.Scope()
		dom := h.MakeVector(p.Conformations, h.Null())
		for c := 0; c < p.Conformations; c++ {
			v := h.MakeVector(3, h.Flonum(0))
			for k := 0; k < 3; k++ {
				x := (rng.Float64()*2 - 1) * 0.8
				if c == 0 {
					x = 0.3 // one always-feasible conformation per residue
				}
				h.VectorSet(v, k, h.Flonum(x))
			}
			h.VectorSet(dom, c, v)
		}
		h.VectorSet(domains, r, dom)
		s2.Close()
	}

	keep := p.KeepSolutions
	if keep < 1 {
		keep = 1
	}
	solutions := h.MakeVector(keep, h.Null())

	origin := h.MakeVector(3, h.Flonum(0))
	p.Solutions = 0
	p.place(h, domains, solutions, 0, origin, h.Null())
	if p.Solutions == 0 {
		return fmt.Errorf("nucleic: search found no placements")
	}
	return nil
}

// place extends a partial structure by choosing a conformation for residue
// r; every candidate position is fresh boxed-flonum geometry, accepted
// positions stay live down the search branch, and completed placements
// rotate through the retained-solutions ring.
func (p *Prog) place(h *heap.Heap, domains, solutions heap.Ref, r int, prev, path heap.Ref) {
	if r == p.Residues {
		// Retain a sample of the reported structures: every eighth, as the
		// real program keeps only the best-scoring placements.
		if p.Solutions%8 == 0 {
			s := h.Scope()
			h.VectorSet(solutions, (p.Solutions/8)%h.VectorLen(solutions), path)
			s.Close()
		}
		p.Solutions++
		return
	}
	s := h.Scope()
	defer s.Close()
	dom := h.VectorRef(domains, r)
	for c := 0; c < p.Conformations; c++ {
		s2 := h.Scope()
		off := h.VectorRef(dom, c)
		nextPos := h.MakeVector(3, h.Flonum(0))
		var d2 float64
		for k := 0; k < 3; k++ {
			// pos = prev + off, one boxed flonum per component plus the
			// squared-distance temporaries.
			pk := h.Flonum(h.FlonumVal(h.VectorRef(prev, k)) + h.FlonumVal(h.VectorRef(off, k)))
			h.VectorSet(nextPos, k, pk)
			diff := h.Flonum(h.FlonumVal(pk) - h.FlonumVal(h.VectorRef(prev, k)))
			sq := h.Flonum(h.FlonumVal(diff) * h.FlonumVal(diff))
			d2 += h.FlonumVal(sq)
		}
		if math.Sqrt(d2) <= p.MaxDist {
			p.place(h, domains, solutions, r+1, nextPos, h.Cons(nextPos, path))
		}
		s2.Close()
	}
}
