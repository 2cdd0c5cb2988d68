package experiments

import (
	"math"
	"testing"

	"rdgc/internal/analytic"
)

// base is a moderate configuration that keeps the tests fast while leaving
// enough collections in the measurement window for stable ratios.
var base = DecayConfig{
	HalfLife: 1024,
	L:        3.5,
	G:        0.25,
	K:        16,
	Steps:    150000,
	Seed:     7,
}

func TestMarkSweepMatchesOneOverLMinusOne(t *testing.T) {
	r := RunMarkSweep(base)
	want := analytic.NonGenerationalMarkCons(base.L)
	if math.Abs(r.MarkCons-want)/want > 0.15 {
		t.Errorf("mark/sweep mark/cons = %.4f, want about %.4f", r.MarkCons, want)
	}
}

func TestSemispaceMatchesOneOverLMinusOne(t *testing.T) {
	r := RunSemispace(base)
	want := analytic.NonGenerationalMarkCons(base.L)
	if math.Abs(r.MarkCons-want)/want > 0.15 {
		t.Errorf("semispace mark/cons = %.4f, want about %.4f", r.MarkCons, want)
	}
}

func TestNonPredictiveMatchesTheorem4(t *testing.T) {
	if !analytic.Theorem4Holds(base.G, base.L) {
		t.Fatal("test configuration must be in the Theorem 4 region")
	}
	r := RunNonPredictive(base)
	want := analytic.MarkCons(base.G, base.L)
	if math.Abs(r.MarkCons-want)/want > 0.25 {
		t.Errorf("non-predictive mark/cons = %.4f, want about %.4f (Theorem 4)", r.MarkCons, want)
	}
}

func TestHeadlineClaimNonPredictiveWins(t *testing.T) {
	// Section 4/5: the non-predictive collector beats the non-generational
	// collector under the radioactive decay model.
	np := RunNonPredictive(base)
	ms := RunMarkSweep(base)
	if np.MarkCons >= ms.MarkCons {
		t.Errorf("non-predictive %.4f not below non-generational %.4f",
			np.MarkCons, ms.MarkCons)
	}
	// And the measured advantage should resemble Corollary 5's prediction.
	gotRel := np.MarkCons / ms.MarkCons
	wantRel := analytic.Relative(base.G, base.L)
	if math.Abs(gotRel-wantRel) > 0.20 {
		t.Errorf("measured relative overhead %.3f, Corollary 5 predicts %.3f", gotRel, wantRel)
	}
}

func TestSection3ClaimConventionalLoses(t *testing.T) {
	// Section 3: a conventional youngest-first generational collector does
	// *worse* than a non-generational collector under radioactive decay,
	// because the youngest generation holds the objects that have had the
	// least time to decay.
	conv := RunConventionalGenerational(base)
	ms := RunMarkSweep(base)
	if conv.MarkCons <= ms.MarkCons {
		t.Errorf("conventional generational %.4f not above non-generational %.4f",
			conv.MarkCons, ms.MarkCons)
	}
}

func TestFigure1ShapeSimulated(t *testing.T) {
	// Sample three points of one Figure 1 curve by simulation and check
	// they are ordered the way the analysis says: the mid-g point beats
	// both the tiny-g point (barely generational) and g at the boundary.
	cfg := base
	cfg.Steps = 100000
	ratios := map[float64]float64{}
	ms := RunMarkSweep(cfg)
	for _, g := range []float64{0.03, 0.25, 0.5} {
		c := cfg
		c.G = g
		np := RunNonPredictive(c)
		ratios[g] = np.MarkCons / ms.MarkCons
	}
	if !(ratios[0.25] < ratios[0.03]) {
		t.Errorf("relative overhead at g=0.25 (%.3f) not below g=0.03 (%.3f)",
			ratios[0.25], ratios[0.03])
	}
	if ratios[0.25] >= 1 {
		t.Errorf("relative overhead at g=0.25 is %.3f, want < 1", ratios[0.25])
	}
}

func TestFourCollectorsRun(t *testing.T) {
	cfg := base
	cfg.Steps = 40000
	for _, r := range []Result{
		RunMarkSweep(cfg),
		RunSemispace(cfg),
		RunConventionalGenerational(cfg),
		RunNonPredictive(cfg),
	} {
		if r.MarkCons <= 0 || math.IsNaN(r.MarkCons) {
			t.Errorf("%s: bad mark/cons %v", r.Collector, r.MarkCons)
		}
		if r.Collections == 0 {
			t.Errorf("%s: no collections in measurement window", r.Collector)
		}
	}
}

func TestLinkingGrowsNonPredictiveRemset(t *testing.T) {
	// §8.3: programs whose pointers run from younger to older objects can
	// inflate the non-predictive collector's remembered set.
	cfg := base
	cfg.Steps = 60000
	cfg.Linking = 0.9
	linked := RunNonPredictive(cfg)
	cfg.Linking = 0
	plain := RunNonPredictive(cfg)
	if linked.RemsetPeak <= plain.RemsetPeak {
		t.Errorf("remset peak with linking (%d) not above without (%d)",
			linked.RemsetPeak, plain.RemsetPeak)
	}
}

func TestDeterministicResults(t *testing.T) {
	a := RunNonPredictive(base)
	b := RunNonPredictive(base)
	if a.MarkCons != b.MarkCons || a.Collections != b.Collections {
		t.Error("same configuration produced different results")
	}
}
