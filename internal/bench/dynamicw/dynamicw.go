// Package dynamicw implements the 10dynamic workload of Table 2: an
// iterated phase computation whose storage profile is the paper's hardest
// case for generational collection (Figure 2, Tables 4 and 5).
//
// The original benchmark is Henglein's dynamic type inference run 10 times
// over its own source. Only its storage behaviour matters to the paper's
// experiments: within a phase almost everything allocated survives until
// the phase's end (Table 4: 91–99% per 100,000 bytes of allocation), and
// the end of each phase is a mass extinction that kills young and old
// objects alike, so over the full run the *oldest* objects have the lowest
// survival rates (Table 5: 59%/23%/1%) — the inversion of the strong
// generational hypothesis. This substitute reproduces that behaviour
// directly: each phase grows a large structure with a small churn of
// short-lived temporaries and a trickle of random attrition, then drops the
// whole structure. DESIGN.md records the substitution.
package dynamicw

import (
	"fmt"
	"math/rand"

	"rdgc/internal/heap"
)

// Prog is the workload.
type Prog struct {
	Phases     int // 1 reproduces "dynamic" (Figure 2); 10 is "10dynamic"
	PhaseWords int // allocation per phase, in words
	Seed       int64

	// SurviveProb is the probability an allocation joins the phase-long
	// structure rather than being a short-lived temporary chain.
	SurviveProb float64
	// AttritionPerKW is the expected number of structure slots dropped per
	// 1000 allocated words, young and old alike, producing the
	// slightly-under-100% epoch survival of Table 4.
	AttritionPerKW float64

	// Checksum is a deterministic digest of the structures built, set by
	// Run, so tests can pin behaviour.
	Checksum uint64
}

// New creates the workload with the paper-shaped defaults: phases of about
// 1.8 megabytes of allocation peaking around 1.1 megabytes live.
func New(phases int) *Prog {
	return &Prog{
		Phases:         phases,
		PhaseWords:     225000, // 1.8 MB at 8 bytes/word
		Seed:           1,
		SurviveProb:    0.72,
		AttritionPerKW: 18,
	}
}

// Name implements bench.Program.
func (p *Prog) Name() string {
	if p.Phases == 1 {
		return "dynamic"
	}
	return fmt.Sprintf("%ddynamic", p.Phases)
}

// HeapWords implements bench.Program.
func (p *Prog) HeapWords() int { return p.PhaseWords }

// Run implements bench.Program.
func (p *Prog) Run(h *heap.Heap) error {
	rng := rand.New(rand.NewSource(p.Seed))
	p.Checksum = 0
	for phase := 0; phase < p.Phases; phase++ {
		if err := p.runPhase(h, rng, phase); err != nil {
			return err
		}
	}
	if p.Checksum == 0 {
		return fmt.Errorf("dynamicw: empty checksum")
	}
	return nil
}

func (p *Prog) runPhase(h *heap.Heap, rng *rand.Rand, phase int) error {
	s := h.Scope()
	defer s.Close() // the mass extinction: everything the phase built dies

	// The phase structure: a table of slots, each holding a small record
	// chain. It grows for most of the phase, as in Figure 2's ramps.
	maxSlots := p.PhaseWords / 12
	table := h.MakeVector(maxSlots, h.Null())
	occupied := make([]int32, 0, maxSlots)
	next := 0

	start := h.Now()
	quota := uint64(p.PhaseWords)
	var sum uint64
	for h.Now()-start < quota {
		if rng.Float64() < p.SurviveProb && next < maxSlots {
			// A record that survives to the end of the phase: a pair chain
			// of 2 nodes plus its table slot.
			s2 := h.Scope()
			rec := h.Cons(h.Fix(int64(phase)), h.Cons(h.Fix(int64(next)), h.Null()))
			h.VectorSet(table, next, rec)
			s2.Close()
			occupied = append(occupied, int32(next))
			next++
		} else {
			// Short-lived temporaries: a chain that dies immediately.
			s2 := h.Scope()
			t := h.Null()
			for i := 0; i < 3; i++ {
				t = h.Cons(h.Fix(int64(i)), t)
			}
			s2.Close()
		}
		// Attrition: occasionally kill a random occupied slot, young or
		// old. An iteration allocates about 9 words, so the per-iteration
		// probability is AttritionPerKW * 9/1000.
		if len(occupied) > 0 && rng.Float64() < p.AttritionPerKW*9/1000 {
			k := rng.Intn(len(occupied))
			h.VectorSet(table, int(occupied[k]), h.Null())
			occupied[k] = occupied[len(occupied)-1]
			occupied = occupied[:len(occupied)-1]
		}
	}

	// Verify the survivors and fold them into the checksum.
	for _, slot := range occupied {
		s2 := h.Scope()
		rec := h.VectorRef(table, int(slot))
		if !h.IsPair(rec) {
			return fmt.Errorf("dynamicw: slot %d lost its record", slot)
		}
		if got := h.FixVal(h.Car(rec)); got != int64(phase) {
			return fmt.Errorf("dynamicw: slot %d corrupted: phase %d", slot, got)
		}
		sum = sum*31 + uint64(h.FixVal(h.Car(h.Cdr(rec))))
		s2.Close()
	}
	p.Checksum = p.Checksum*1099511628211 + sum
	return nil
}
