// Package analytic implements the closed-form analysis of Section 5 of the
// paper: the limiting live fraction l(f,g), the expected mark/cons ratio of
// the non-predictive collector (Theorem 4), its ratio to the
// non-generational collector's 1/(L-1) (Corollary 5), and the fixed-point
// lower bound of equation (4) used where Theorem 4's hypotheses fail.
//
// Conventions follow the paper: L is the inverse load factor (heap size
// divided by live storage at equilibrium), g = j/k is the fraction of the
// heap devoted to the uncollected young generation, and f (0 ≤ f ≤ g) is
// the fraction of the heap that is *free* in steps 1..j right after a
// collection. Under the recommended policy steps 1..j are empty after every
// collection, so f = g.
//
// A useful simplification the paper leaves implicit: since r^(Nf) with
// r = 2^(-1/h) and N ≈ hL/ln 2 gives 2^(-Lf/ln 2) = e^(-Lf), the limiting
// live fraction is
//
//	l(f,g) = 1 − e^(−Lf)·(1 − L(g−f))
//
// independent of the half-life h (that independence is Theorem 3).
package analytic

import (
	"errors"
	"math"
)

// LiveFraction returns l(f,g): the fraction of the live storage expected to
// reside in steps 1..j at the beginning of the next collection, in the
// large-h limit (Theorem 3).
func LiveFraction(f, g, L float64) float64 {
	return 1 - math.Exp(-L*f)*(1-L*(g-f))
}

// Theorem4Holds reports whether the hypotheses of Theorem 4 are satisfied:
// f = g (implied by the recommended policy), g ≤ 1/2, and
// L(1−2g) ≥ 1 − l(g,g), i.e. the space reclaimed by a collection refills
// steps 1..j completely so the equilibrium is stable.
func Theorem4Holds(g, L float64) bool {
	return g <= 0.5 && L*(1-2*g) >= 1-LiveFraction(g, g, L)
}

// MarkCons returns Theorem 4's expected mark/cons ratio for the
// non-predictive collector with f = g:
//
//	(1 − l(g,g)) / (L(1−g) − (1 − l(g,g)))
//
// It is exact (in the limit) only where Theorem4Holds; callers wanting a
// value everywhere should use MarkConsEstimate.
func MarkCons(g, L float64) float64 {
	u := 1 - LiveFraction(g, g, L) // = e^(−Lg)
	return u / (L*(1-g) - u)
}

// NonGenerationalMarkCons returns the mark/cons ratio 1/(L−1) of a
// non-generational mark/sweep collector at inverse load factor L.
func NonGenerationalMarkCons(L float64) float64 { return 1 / (L - 1) }

// Relative returns Corollary 5's ratio of the non-predictive collector's
// mark/cons overhead to the non-generational collector's. Values below 1
// mean the non-predictive collector wins.
func Relative(g, L float64) float64 {
	return MarkCons(g, L) * (L - 1)
}

// ErrNoFixedPoint reports that equation (4)'s iteration failed to converge.
var ErrNoFixedPoint = errors.New("analytic: fixed-point iteration did not converge")

// FixedPointF solves equation (4) for f:
//
//	f = max(0, min(1 − g + (l(f,g)−1)/L, g))
//
// by damped iteration from f = g.
func FixedPointF(g, L float64) (float64, error) {
	f := g
	for i := 0; i < 10000; i++ {
		next := 1 - g + (LiveFraction(f, g, L)-1)/L
		if next > g {
			next = g
		}
		if next < 0 {
			next = 0
		}
		next = f + 0.5*(next-f) // damping stabilizes oscillation near g=1/2
		if math.Abs(next-f) < 1e-12 {
			return next, nil
		}
		f = next
	}
	return f, ErrNoFixedPoint
}

// MarkConsLowerBound divides expression (2) by expression (3) at the fixed
// point of equation (4): the expected live words in steps j+1..k over the
// expected reclaimed words. As the paper notes, the result is a lower
// bound on the true mark/cons ratio when Theorem 4's hypotheses fail.
func MarkConsLowerBound(g, L float64) (float64, error) {
	f, err := FixedPointF(g, L)
	if err != nil {
		return 0, err
	}
	l := LiveFraction(f, g, L)
	return (1 - l) / (L*(1-g) - 1 + l), nil
}

// RelativeEstimate returns Corollary 5's ratio where Theorem 4 holds, and
// the fixed-point lower bound times (L−1) elsewhere, with exact reporting
// of which case applied. This reproduces Figure 1's thin (exact) and thick
// (lower bound) curves.
func RelativeEstimate(g, L float64) (ratio float64, exact bool, err error) {
	if Theorem4Holds(g, L) {
		return Relative(g, L), true, nil
	}
	mc, err := MarkConsLowerBound(g, L)
	if err != nil {
		return 0, false, err
	}
	return mc * (L - 1), false, nil
}

// BestG numerically minimizes the relative overhead over g ∈ (0, 1/2],
// returning the optimal generation fraction and the overhead there.
func BestG(L float64) (g, ratio float64) {
	bestG, best := 0.0, math.Inf(1)
	for i := 1; i <= 500; i++ {
		gi := float64(i) / 1000
		r, _, err := RelativeEstimate(gi, L)
		if err != nil {
			continue
		}
		if r < best {
			best, bestG = r, gi
		}
	}
	return bestG, best
}

// EquilibriumLive returns equation (1)'s expected live objects at
// equilibrium for half-life h: n = 1/(1−r) ≈ h/ln 2 ≈ 1.4427·h.
func EquilibriumLive(h float64) float64 { return h / math.Ln2 }

// Figure1Point is one sample of Figure 1.
type Figure1Point struct {
	G     float64 // generation fraction g = j/k
	L     float64 // inverse load factor
	Ratio float64 // non-predictive overhead / non-generational overhead
	Exact bool    // true on the thin (Theorem 4) part of the curve
}

// Figure1Series samples the Figure 1 curve for one inverse load factor L at
// the given g values (typically a sweep of (0, 0.5]).
func Figure1Series(L float64, gs []float64) []Figure1Point {
	out := make([]Figure1Point, 0, len(gs))
	for _, g := range gs {
		r, exact, err := RelativeEstimate(g, L)
		if err != nil {
			continue
		}
		out = append(out, Figure1Point{G: g, L: L, Ratio: r, Exact: exact})
	}
	return out
}

// SweepG returns n evenly spaced g values in (0, 0.5].
func SweepG(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.5 * float64(i+1) / float64(n)
	}
	return out
}
