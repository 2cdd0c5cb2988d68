// Command rdmsim runs the radioactive decay workload against the
// repository's collectors and reports measured mark/cons ratios next to the
// paper's analytic predictions: 1/(L-1) for the non-generational collectors
// (Section 5), Theorem 4 for the non-predictive collector, and worse than
// both for the conventional youngest-first generational collector
// (Section 3).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"rdgc/internal/analytic"
	"rdgc/internal/decay"
	"rdgc/internal/experiments"
	"rdgc/internal/runner"
)

// checkLifetimes rejects the lifetime parameters decay.NewWorkload panics on,
// which flag.Float64 parses happily ("NaN", "Inf", "-3").
func checkLifetimes(h, infant, infantH float64) error {
	if !decay.ValidHalfLife(h) {
		return fmt.Errorf("-h %g: the half-life must be finite and positive", h)
	}
	if !(infant >= 0 && infant <= 1) {
		return fmt.Errorf("-infant %g: the infant-mortality probability must lie in [0, 1]", infant)
	}
	if infant > 0 && !decay.ValidHalfLife(infantH) {
		return fmt.Errorf("-infanth %g: the infant half-life must be finite and positive", infantH)
	}
	return nil
}

// checkGrid rejects the heap-shape parameters the cells cannot run on: a
// heap of L times the live storage needs L above 1 (mark/sweep runs out of
// memory at 1, and 1/(L-1) is the first analytic row), a step machine needs
// two steps and a j below k, and a mark/cons ratio needs an allocation.
func checkGrid(l, g float64, k, steps int) error {
	if !(l > 1) || math.IsInf(l, 1) {
		return fmt.Errorf("-L %g: the inverse load factor must be finite and above 1", l)
	}
	if !(g >= 0 && g < 1) {
		return fmt.Errorf("-g %g: the generation fraction must lie in [0, 1)", g)
	}
	if k < 2 {
		return fmt.Errorf("-k %d: the non-predictive step count must be at least 2", k)
	}
	if steps < 1 {
		return fmt.Errorf("-steps %d: must be at least 1", steps)
	}
	return nil
}

func main() {
	h := flag.Float64("h", 1024, "half-life in objects")
	l := flag.Float64("L", 3.5, "inverse load factor")
	g := flag.Float64("g", 0.25, "generation fraction g = j/k for the non-predictive collector")
	k := flag.Int("k", 16, "non-predictive step count")
	steps := flag.Int("steps", 200000, "measured allocations")
	seed := flag.Int64("seed", 1, "workload seed")
	linking := flag.Float64("link", 0, "probability a new object links a live one (remset experiment)")
	all := flag.Bool("all", false, "also measure the hybrid, multigen, and np-mark/sweep collectors")
	infant := flag.Float64("infant", 0, "infant-mortality probability (0 = pure decay)")
	infantH := flag.Float64("infanth", 0, "infant half-life (default h/64)")
	runOpts := runner.Flags(flag.CommandLine)
	flag.Parse()

	if *infant > 0 && *infantH == 0 {
		*infantH = *h / 64
	}
	err := checkLifetimes(*h, *infant, *infantH)
	if err == nil {
		err = checkGrid(*l, *g, *k, *steps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdmsim:", err)
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.DecayConfig{
		HalfLife: *h, L: *l, G: *g, K: *k, Steps: *steps, Seed: *seed, Linking: *linking,
		InfantProb: *infant, InfantHalfLife: *infantH,
	}

	fmt.Printf("radioactive decay: h=%g  L=%g  g=%g  k=%d  heap=%d words\n",
		*h, *l, *g, *k, cfg.HeapWords())
	fmt.Printf("expected equilibrium live: %.0f objects (1.4427h, eq. 1)\n\n",
		analytic.EquilibriumLive(*h))

	// Each collector measures the same workload on its own heap, so the
	// comparison cells run on a worker pool; printing stays in cell order.
	mk := func(name string, run func(experiments.DecayConfig) experiments.Result) runner.Spec[experiments.Result] {
		return runner.Spec[experiments.Result]{
			Name: name,
			Run:  func() (experiments.Result, error) { return run(cfg), nil },
		}
	}
	specs := []runner.Spec[experiments.Result]{
		mk("mark/sweep", experiments.RunMarkSweep),
		mk("stop-and-copy", experiments.RunSemispace),
		mk("generational", experiments.RunConventionalGenerational),
		mk("non-predictive", experiments.RunNonPredictive),
	}
	if *all {
		specs = append(specs,
			mk("hybrid", experiments.RunHybrid),
			mk("multigen", func(c experiments.DecayConfig) experiments.Result {
				return experiments.RunMultigen(c, 3)
			}),
			mk("np-mark/sweep", experiments.RunNonPredictiveMS),
		)
	}
	for _, r := range runner.Run(specs, runOpts()) {
		if r.Err != nil {
			fmt.Fprintln(os.Stderr, r.Err)
			os.Exit(1)
		}
		fmt.Println(r.Value)
	}

	fmt.Printf("\nanalytic predictions:\n")
	fmt.Printf("  non-generational mark/cons 1/(L-1):        %.4f\n",
		analytic.NonGenerationalMarkCons(*l))
	if analytic.Theorem4Holds(*g, *l) {
		fmt.Printf("  non-predictive mark/cons (Theorem 4):      %.4f\n",
			analytic.MarkCons(*g, *l))
		fmt.Printf("  relative overhead (Corollary 5):           %.4f\n",
			analytic.Relative(*g, *l))
	} else {
		lb, err := analytic.MarkConsLowerBound(*g, *l)
		if err == nil {
			fmt.Printf("  non-predictive mark/cons (lower bound):    %.4f\n", lb)
		}
	}
	bestG, ratio := analytic.BestG(*l)
	fmt.Printf("  best g for this L: %.3f (relative overhead %.3f)\n", bestG, ratio)
}
