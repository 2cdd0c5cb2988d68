// Package nbody implements the nbody benchmark of Table 2: an
// inverse-square-law particle simulation. Matching Larceny's uniform
// representation — the paper attributes nbody's "excessively rapid
// allocation" to it — every floating-point intermediate is a boxed flonum
// allocated on the simulated heap, so a direct-sum force evaluation
// allocates tens of words per body pair and almost all of it dies within
// one time step.
//
// The paper's nbody uses Greengard's fast multipole method; the multipole
// machinery only changes which floats are computed, not how they are boxed,
// so this reproduction uses the direct O(n²) sum. DESIGN.md records the
// substitution.
package nbody

import (
	"fmt"
	"math"
	"math/rand"

	"rdgc/internal/heap"
)

// Prog is one n-body configuration.
type Prog struct {
	Bodies int
	Steps  int
	DT     float64
	Seed   int64
	// HistorySteps bounds the retained trajectory ring. The paper's nbody
	// (Greengard's method) keeps a multipole tree and expansion caches
	// that put its peak storage near a megabyte; the direct-sum substitute
	// carries an equivalent medium-lived structure by retaining the last
	// HistorySteps position snapshots.
	HistorySteps int

	// Drift is the relative momentum drift of the last Run (should be ~0).
	Drift float64
}

// New creates an n-body run; paper-scale behaviour needs only modest sizes
// because the point is allocation volume, not physics throughput.
func New(bodies, steps int) *Prog {
	return &Prog{Bodies: bodies, Steps: steps, DT: 1e-3, Seed: 1, HistorySteps: 20}
}

// Name implements bench.Program.
func (p *Prog) Name() string { return fmt.Sprintf("nbody-%d", p.Bodies) }

// HeapWords implements bench.Program.
func (p *Prog) HeapWords() int { return 1 << 16 }

// flonum arithmetic: every operation allocates its result, as Larceny does.

func (p *Prog) add(h *heap.Heap, a, b heap.Ref) heap.Ref {
	return h.Flonum(h.FlonumVal(a) + h.FlonumVal(b))
}
func (p *Prog) sub(h *heap.Heap, a, b heap.Ref) heap.Ref {
	return h.Flonum(h.FlonumVal(a) - h.FlonumVal(b))
}
func (p *Prog) mul(h *heap.Heap, a, b heap.Ref) heap.Ref {
	return h.Flonum(h.FlonumVal(a) * h.FlonumVal(b))
}
func (p *Prog) div(h *heap.Heap, a, b heap.Ref) heap.Ref {
	return h.Flonum(h.FlonumVal(a) / h.FlonumVal(b))
}

// Run implements bench.Program.
func (p *Prog) Run(h *heap.Heap) error {
	rng := rand.New(rand.NewSource(p.Seed))
	s := h.Scope()
	defer s.Close()

	n := p.Bodies
	// State vectors: position, velocity, mass — boxed flonums in vectors,
	// the only storage that survives across steps.
	pos := make([]heap.Ref, 3)
	vel := make([]heap.Ref, 3)
	for d := 0; d < 3; d++ {
		pos[d] = h.MakeVector(n, h.Flonum(0))
		vel[d] = h.MakeVector(n, h.Flonum(0))
	}
	mass := h.MakeVector(n, h.Flonum(0))
	for i := 0; i < n; i++ {
		s2 := h.Scope()
		for d := 0; d < 3; d++ {
			h.VectorSet(pos[d], i, h.Flonum(rng.Float64()*2-1))
			h.VectorSet(vel[d], i, h.Flonum((rng.Float64()*2-1)*0.1))
		}
		h.VectorSet(mass, i, h.Flonum(rng.Float64()*0.9+0.1))
		s2.Close()
	}

	p0 := p.totalMomentum(h, vel, mass)

	// The trajectory ring: HistorySteps slots of per-body position
	// snapshots, each slot overwritten in rotation so its previous
	// contents die in place.
	ringSlots := p.HistorySteps
	if ringSlots < 1 {
		ringSlots = 1
	}
	history := h.MakeVector(ringSlots, h.Null())

	dt := h.Flonum(p.DT)
	eps := h.Flonum(1e-4)
	for step := 0; step < p.Steps; step++ {
		for i := 0; i < n; i++ {
			si := h.Scope()
			acc := []heap.Ref{h.Flonum(0), h.Flonum(0), h.Flonum(0)}
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				sj := h.Scope()
				var d [3]heap.Ref
				r2 := h.Dup(eps)
				for k := 0; k < 3; k++ {
					d[k] = p.sub(h, h.VectorRef(pos[k], j), h.VectorRef(pos[k], i))
					r2 = p.add(h, r2, p.mul(h, d[k], d[k]))
				}
				r := h.Flonum(math.Sqrt(h.FlonumVal(r2)))
				f := p.div(h, h.VectorRef(mass, j), p.mul(h, r2, r))
				for k := 0; k < 3; k++ {
					acc[k] = p.add(h, acc[k], p.mul(h, f, d[k]))
				}
				// Keep the updated accumulators; drop the temporaries.
				w0, w1, w2 := h.Get(acc[0]), h.Get(acc[1]), h.Get(acc[2])
				sj.Close()
				acc[0], acc[1], acc[2] = h.RefOf(w0), h.RefOf(w1), h.RefOf(w2)
			}
			for k := 0; k < 3; k++ {
				h.VectorSet(vel[k], i, p.add(h, h.VectorRef(vel[k], i), p.mul(h, acc[k], dt)))
			}
			si.Close()
		}
		for i := 0; i < n; i++ {
			si := h.Scope()
			for k := 0; k < 3; k++ {
				h.VectorSet(pos[k], i, p.add(h, h.VectorRef(pos[k], i),
					p.mul(h, h.VectorRef(vel[k], i), dt)))
			}
			si.Close()
		}

		// Snapshot the step into the trajectory ring.
		ss := h.Scope()
		snap := h.MakeVector(3*n, h.Flonum(0))
		for i := 0; i < n; i++ {
			for k := 0; k < 3; k++ {
				h.VectorSet(snap, 3*i+k, h.Flonum(h.FlonumVal(h.VectorRef(pos[k], i))))
			}
		}
		h.VectorSet(history, step%ringSlots, snap)
		ss.Close()
	}
	if h.IsNull(h.VectorRef(history, 0)) {
		return fmt.Errorf("nbody: trajectory ring never filled")
	}

	p1 := p.totalMomentum(h, vel, mass)
	p.Drift = 0
	for k := 0; k < 3; k++ {
		p.Drift += math.Abs(p1[k] - p0[k])
	}
	if p.Drift > 1e-6*float64(n)*float64(p.Steps) {
		return fmt.Errorf("nbody: momentum drift %g too large", p.Drift)
	}
	return nil
}

func (p *Prog) totalMomentum(h *heap.Heap, vel []heap.Ref, mass heap.Ref) [3]float64 {
	s := h.Scope()
	defer s.Close()
	var out [3]float64
	for i := 0; i < h.VectorLen(mass); i++ {
		m := h.FlonumVal(h.VectorRef(mass, i))
		for k := 0; k < 3; k++ {
			out[k] += m * h.FlonumVal(h.VectorRef(vel[k], i))
		}
	}
	return out
}
