// Command figure1 regenerates Figure 1 of the paper: the mark/cons overhead
// of the non-predictive collector divided by the overhead of a
// non-generational collector, as a function of the generation fraction g
// and the inverse load factor L, under the radioactive decay model.
//
// By default it prints the analytic curves (thin lines exact where
// Theorem 4 holds, thick lines the fixed-point lower bound elsewhere) as
// CSV. With -sim it also measures real collectors on the decay workload at
// each sampled g, which takes a while.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"rdgc/internal/analytic"
	"rdgc/internal/decay"
	"rdgc/internal/experiments"
	"rdgc/internal/runner"
)

// checkFlags parses -L and rejects the values the curves and the simulated
// cells cannot run on, which the flag package parses happily ("NaN", "0",
// "-3"): Figure1Series divides by L-1, SweepG allocates points samples, and
// decay.NewWorkload panics on a half-life that is not finite and positive.
func checkFlags(lsFlag string, points, simPoints, steps int, h float64) ([]float64, error) {
	var ls []float64
	for _, tok := range strings.Split(lsFlag, ",") {
		l, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("-L: %v", err)
		}
		if !(l > 1) || math.IsInf(l, 1) {
			return nil, fmt.Errorf("-L %g: an inverse load factor must be finite and above 1", l)
		}
		ls = append(ls, l)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-points", points}, {"-simpoints", simPoints}, {"-steps", steps}} {
		if f.v < 1 {
			return nil, fmt.Errorf("%s %d: must be at least 1", f.name, f.v)
		}
	}
	if !decay.ValidHalfLife(h) {
		return nil, fmt.Errorf("-h %g: the half-life must be finite and positive", h)
	}
	return ls, nil
}

func main() {
	lsFlag := flag.String("L", "1.5,2,3,4,6,8", "comma-separated inverse load factors")
	points := flag.Int("points", 50, "samples of g in (0, 0.5]")
	sim := flag.Bool("sim", false, "also simulate real collectors (slow)")
	simPoints := flag.Int("simpoints", 10, "g samples for simulation")
	halfLife := flag.Float64("h", 1024, "half-life for simulation, in objects")
	steps := flag.Int("steps", 150000, "measured allocations for simulation")
	runOpts := runner.Flags(flag.CommandLine)
	flag.Parse()

	ls, err := checkFlags(*lsFlag, *points, *simPoints, *steps, *halfLife)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figure1:", err)
		flag.Usage()
		os.Exit(2)
	}

	fmt.Println("# analytic curves: relative overhead vs g (thin=exact, thick=lower bound)")
	fmt.Println("L,g,relative_overhead,exact")
	for _, l := range ls {
		for _, pt := range analytic.Figure1Series(l, analytic.SweepG(*points)) {
			fmt.Printf("%g,%.4f,%.6f,%v\n", pt.L, pt.G, pt.Ratio, pt.Exact)
		}
	}

	for _, l := range ls {
		g, ratio := analytic.BestG(l)
		fmt.Printf("# best g for L=%g: g=%.3f, relative overhead %.3f\n", l, g, ratio)
	}

	if !*sim {
		return
	}

	// One mark/sweep baseline cell per L, plus one non-predictive cell per
	// (L, g) sample — all independent, so the whole grid goes through the
	// worker pool. Cells land in a fixed layout: L index li occupies
	// [li*(1+simPoints), (li+1)*(1+simPoints)), baseline first.
	perL := 1 + *simPoints
	var specs []runner.Spec[experiments.Result]
	for _, l := range ls {
		cfg := experiments.DecayConfig{HalfLife: *halfLife, L: l, Steps: *steps}
		specs = append(specs, runner.Spec[experiments.Result]{
			Name: fmt.Sprintf("mark-sweep L=%g", l),
			Run:  func() (experiments.Result, error) { return experiments.RunMarkSweep(cfg), nil },
		})
		for i := 1; i <= *simPoints; i++ {
			cfg := cfg
			cfg.G = 0.5 * float64(i) / float64(*simPoints)
			specs = append(specs, runner.Spec[experiments.Result]{
				Name: fmt.Sprintf("non-predictive L=%g g=%.3f", l, cfg.G),
				Run:  func() (experiments.Result, error) { return experiments.RunNonPredictive(cfg), nil },
			})
		}
	}
	results := runner.Run(specs, runOpts())
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintln(os.Stderr, "figure1:", r.Err)
			os.Exit(1)
		}
	}

	fmt.Println("# simulated points (non-predictive / mark-sweep, measured)")
	fmt.Println("L,g,relative_overhead_measured")
	for li, l := range ls {
		ms := results[li*perL].Value
		for i := 1; i <= *simPoints; i++ {
			g := 0.5 * float64(i) / float64(*simPoints)
			np := results[li*perL+i].Value
			fmt.Printf("%g,%.3f,%.4f\n", l, g, np.MarkCons/ms.MarkCons)
		}
	}
}
