package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLiveFractionBasics(t *testing.T) {
	if got := LiveFraction(0, 0, 3); got != 0 {
		t.Errorf("l(0,0) = %g, want 0", got)
	}
	// With f = g, l(g,g) = 1 − e^(−Lg).
	for _, g := range []float64{0.1, 0.25, 0.5} {
		for _, L := range []float64{1.5, 2, 4, 8} {
			want := 1 - math.Exp(-L*g)
			if got := LiveFraction(g, g, L); math.Abs(got-want) > 1e-12 {
				t.Errorf("l(%g,%g;L=%g) = %g, want %g", g, g, L, got, want)
			}
		}
	}
}

func TestLiveFractionMonotoneInF(t *testing.T) {
	// dl/df = −L²(g−f)e^(−Lf) ≤ 0 on [0,g]: more free space in the young
	// steps delays the next collection, giving the pre-existing young
	// occupants longer to decay, so the live fraction found there falls.
	f := func(a, b uint8) bool {
		g := 0.5
		L := 3.0
		f1 := g * float64(a%101) / 100
		f2 := g * float64(b%101) / 100
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		return LiveFraction(f1, g, L) >= LiveFraction(f2, g, L)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// liveH computes live_h(f,g)/n exactly from the paper's finite sum, before
// any large-h approximation: sum_{t=1..Nf} r^t + N(g−f)·r^(Nf), over n.
func liveH(h, f, g, L float64) float64 {
	r := math.Exp2(-1 / h)
	n := 1 / (1 - r)
	N := n * L
	Nf := math.Round(N * f)
	sum := r * (1 - math.Pow(r, Nf)) / (1 - r)
	sum += N * (g - f) * math.Pow(r, Nf)
	return sum / n
}

func TestTheorem3Convergence(t *testing.T) {
	// live_h(f,g)/n → l(f,g) as h → ∞.
	cases := []struct{ f, g, L float64 }{
		{0.2, 0.2, 3}, {0.1, 0.3, 3}, {0.4, 0.5, 2}, {0.05, 0.05, 8},
	}
	for _, c := range cases {
		limit := LiveFraction(c.f, c.g, c.L)
		prevErr := math.Inf(1)
		for _, h := range []float64{100, 1000, 10000, 100000} {
			e := math.Abs(liveH(h, c.f, c.g, c.L) - limit)
			if e > prevErr+1e-9 {
				t.Errorf("f=%g g=%g L=%g: error grew from %g to %g at h=%g",
					c.f, c.g, c.L, prevErr, e, h)
			}
			prevErr = e
		}
		if prevErr > 1e-3 {
			t.Errorf("f=%g g=%g L=%g: live_h/n did not converge to l (err %g)",
				c.f, c.g, c.L, prevErr)
		}
	}
}

func TestRelativeApproachesOneAsGVanishes(t *testing.T) {
	// With no young generation the non-predictive collector is just a
	// non-generational collector, so the relative overhead tends to 1.
	for _, L := range []float64{1.5, 2, 3, 4, 8} {
		if got := Relative(1e-9, L); math.Abs(got-1) > 1e-6 {
			t.Errorf("Relative(g→0, L=%g) = %g, want 1", L, got)
		}
	}
}

func TestNonPredictiveBeatsNonGenerational(t *testing.T) {
	// The paper's main theoretical result: for every sensible L there is a
	// g where the relative overhead is below 1.
	for _, L := range []float64{1.5, 2, 3, 4, 6, 8} {
		g, ratio := BestG(L)
		if ratio >= 1 {
			t.Errorf("L=%g: best relative overhead %g at g=%g, want < 1", L, ratio, g)
		}
		if g <= 0 || g > 0.5 {
			t.Errorf("L=%g: best g=%g out of range", L, g)
		}
	}
}

func TestTheorem4Region(t *testing.T) {
	// At g = 1/2 the condition L(1−2g) ≥ 1−l becomes 0 ≥ e^(−L/2): false.
	for _, L := range []float64{1.5, 3, 8} {
		if Theorem4Holds(0.5, L) {
			t.Errorf("Theorem4Holds(0.5, %g) = true, want false", L)
		}
	}
	// For small g it holds for all L > 1.
	for _, L := range []float64{1.5, 3, 8} {
		if !Theorem4Holds(0.05, L) {
			t.Errorf("Theorem4Holds(0.05, %g) = false, want true", L)
		}
	}
}

func TestFixedPointEqualsGWhereTheorem4Holds(t *testing.T) {
	for _, L := range []float64{2, 3, 6} {
		for _, g := range []float64{0.05, 0.15, 0.25} {
			if !Theorem4Holds(g, L) {
				continue
			}
			f, err := FixedPointF(g, L)
			if err != nil {
				t.Fatalf("g=%g L=%g: %v", g, L, err)
			}
			if math.Abs(f-g) > 1e-9 {
				t.Errorf("g=%g L=%g: fixed point f=%g, want g", g, L, f)
			}
		}
	}
}

func TestLowerBoundBelowExactWhereBothDefined(t *testing.T) {
	for _, L := range []float64{2, 3, 6} {
		for _, g := range []float64{0.3, 0.4, 0.45, 0.5} {
			lb, err := MarkConsLowerBound(g, L)
			if err != nil {
				t.Fatalf("g=%g L=%g: %v", g, L, err)
			}
			if Theorem4Holds(g, L) {
				exact := MarkCons(g, L)
				if lb > exact+1e-9 {
					t.Errorf("g=%g L=%g: lower bound %g exceeds exact %g", g, L, lb, exact)
				}
			}
			if lb < 0 {
				t.Errorf("g=%g L=%g: negative lower bound %g", g, L, lb)
			}
		}
	}
}

func TestRelativeEstimateFinite(t *testing.T) {
	f := func(gi, li uint16) bool {
		g := 0.005 + 0.495*float64(gi)/65535
		L := 1.2 + 8.8*float64(li)/65535
		r, _, err := RelativeEstimate(g, L)
		return err == nil && r > 0 && !math.IsInf(r, 0) && !math.IsNaN(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEquilibriumLive(t *testing.T) {
	if got := EquilibriumLive(1024); math.Abs(got-1477.3) > 0.5 {
		t.Errorf("EquilibriumLive(1024) = %g, want about 1477.3 (1.4427h)", got)
	}
}

func TestFigure1Series(t *testing.T) {
	gs := SweepG(50)
	if len(gs) != 50 || gs[0] <= 0 || gs[49] != 0.5 {
		t.Fatalf("SweepG malformed: %v...%v", gs[0], gs[49])
	}
	pts := Figure1Series(3, gs)
	if len(pts) != 50 {
		t.Fatalf("series has %d points, want 50", len(pts))
	}
	// The curve must dip below 1 somewhere and be exact at small g.
	min := math.Inf(1)
	for _, p := range pts {
		if p.Ratio < min {
			min = p.Ratio
		}
	}
	if min >= 1 {
		t.Errorf("Figure 1 series for L=3 never dips below 1 (min %g)", min)
	}
	if !pts[0].Exact {
		t.Error("smallest-g point should be in the exact (Theorem 4) region")
	}
}
