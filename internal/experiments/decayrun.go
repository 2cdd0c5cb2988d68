// Package experiments orchestrates the paper's quantitative experiments:
// it wires the radioactive-decay workload (and, elsewhere, the benchmark
// programs) to each collector with the paper's parameterization (half-life
// h, inverse load factor L, generation fraction g) and measures mark/cons
// ratios, pauses, and remembered-set growth.
package experiments

import (
	"fmt"
	"math"

	"rdgc/internal/core"
	"rdgc/internal/decay"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/hybrid"
	"rdgc/internal/gc/marksweep"
	"rdgc/internal/gc/multigen"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

// DecayConfig parameterizes a radioactive-decay measurement.
type DecayConfig struct {
	HalfLife float64 // h, in objects
	L        float64 // inverse load factor: heap words / live words
	G        float64 // generation fraction g = j/k (non-predictive only)
	K        int     // step count (non-predictive only)
	Steps    int     // measured allocations (objects)
	Warmup   float64 // warmup length in half-lives (default 10)
	Seed     int64
	Linking  float64 // probability a new object links a live one (default 0)

	// NurseryFraction sizes the conventional generational collector's
	// nursery as a fraction of the heap (default 1/8).
	NurseryFraction float64

	// SizeMin/SizeMax, when set, draw object payloads uniformly from
	// [SizeMin, SizeMax] words instead of fixed-size pairs (the
	// object-size ablation).
	SizeMin, SizeMax int

	// InfantProb/InfantHalfLife mix infant mortality into the lifetime
	// distribution: the §7 crossover experiment between the pure decay
	// model and weak-generational behaviour.
	InfantProb     float64
	InfantHalfLife float64
}

func (cfg DecayConfig) avgObjWords() float64 {
	if cfg.SizeMax > 0 {
		return 1 + float64(cfg.SizeMin+cfg.SizeMax)/2
	}
	return decay.ObjectWords
}

func (cfg DecayConfig) withDefaults() DecayConfig {
	if cfg.Warmup == 0 {
		cfg.Warmup = 10
	}
	if cfg.K == 0 {
		cfg.K = 16
	}
	if cfg.NurseryFraction == 0 {
		cfg.NurseryFraction = 1.0 / 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// HeapWords returns the heap size N in words implied by h and L:
// N = L · n · (average object words) with n the expected live objects at
// equilibrium under the configured lifetime mixture.
func (cfg DecayConfig) HeapWords() int {
	n := decay.Model{H: cfg.HalfLife}.EquilibriumLive()
	if cfg.InfantProb > 0 {
		short := decay.Model{H: cfg.InfantHalfLife}.EquilibriumLive()
		n = cfg.InfantProb*short + (1-cfg.InfantProb)*n
	}
	return int(math.Ceil(cfg.L * n * cfg.avgObjWords()))
}

// Result reports one measured run.
type Result struct {
	Collector   string
	MarkCons    float64 // (copied+marked words) / allocated words, measured window
	Collections int     // collections during the measured window
	MaxPause    uint64  // largest single-collection trace, whole run (words)
	RemsetPeak  int
	LiveAvg     float64 // mean live objects during measurement
	HeapWords   int
}

func (r Result) String() string {
	return fmt.Sprintf("%-16s mark/cons %.4f  collections %4d  max pause %6d words  live %.0f",
		r.Collector, r.MarkCons, r.Collections, r.MaxPause, r.LiveAvg)
}

// measure runs the workload and computes deltas across the measurement
// window. It owns warmup, sampling, and ratio arithmetic so every collector
// is measured identically.
func measure(cfg DecayConfig, h *heap.Heap, c heap.Collector, w *decay.Workload) Result {
	w.Warmup(cfg.Warmup)

	alloc0 := h.Stats.WordsAllocated
	g0 := *c.GCStats()

	var liveSum float64
	samples := 0
	chunk := cfg.Steps / 100
	if chunk < 1 {
		chunk = 1
	}
	for done := 0; done < cfg.Steps; done += chunk {
		n := chunk
		if rest := cfg.Steps - done; n > rest {
			n = rest
		}
		w.Run(n)
		liveSum += float64(w.LiveObjects())
		samples++
	}

	g1 := c.GCStats()
	allocated := h.Stats.WordsAllocated - alloc0
	work := (g1.WordsCopied - g0.WordsCopied) + (g1.WordsMarked - g0.WordsMarked)
	return Result{
		Collector:   c.Name(),
		MarkCons:    float64(work) / float64(allocated),
		Collections: g1.Collections - g0.Collections,
		MaxPause:    g1.Pauses.MaxWords,
		RemsetPeak:  g1.RemsetPeak,
		LiveAvg:     liveSum / float64(samples),
		HeapWords:   cfg.HeapWords(),
	}
}

func (cfg DecayConfig) workloadOpts() []decay.Option {
	var opts []decay.Option
	if cfg.Linking > 0 {
		opts = append(opts, decay.WithLinking(cfg.Linking))
	}
	if cfg.SizeMax > 0 {
		opts = append(opts, decay.WithSizes(cfg.SizeMin, cfg.SizeMax))
	}
	if cfg.InfantProb > 0 {
		opts = append(opts, decay.WithInfantMortality(cfg.InfantProb, cfg.InfantHalfLife))
	}
	return opts
}

// RunMultigen measures an n-generation youngest-first collector on the
// decay workload, with geometrically growing aging generations in front of
// the old semispace (the tenuring ablation).
func RunMultigen(cfg DecayConfig, nGens int) Result {
	cfg = cfg.withDefaults()
	h := heap.New()
	total := cfg.HeapWords()
	sizes := make([]int, nGens)
	rem := total
	for i := 0; i < nGens-1; i++ {
		s := total >> (nGens - i)
		sizes[i] = s
		rem -= s
	}
	sizes[nGens-1] = rem
	c := multigen.New(h, sizes)
	w := decay.NewWorkload(h, cfg.HalfLife, cfg.Seed, cfg.workloadOpts()...)
	return measure(cfg, h, c, w)
}

// RunHybrid measures the Larceny-style hybrid (ephemeral nursery feeding a
// non-predictive dynamic area, §8) on the decay workload. The nursery
// filters short-lived objects so the non-predictive area manages only the
// longer-lived population, which is the paper's intended deployment.
func RunHybrid(cfg DecayConfig) Result {
	cfg = cfg.withDefaults()
	h := heap.New()
	total := cfg.HeapWords()
	nursery := int(float64(total) * cfg.NurseryFraction)
	k := cfg.K
	if max := 2 * (total - nursery) / maxInt(nursery, 1); k > max && max >= 2 {
		k = max // the step size must be at least half the nursery size
	}
	stepWords := (total - nursery) / k
	c := hybrid.New(h, nursery, k, stepWords, hybrid.WithPolicy(core.FractionJ(cfg.G)))
	w := decay.NewWorkload(h, cfg.HalfLife, cfg.Seed, cfg.workloadOpts()...)
	return measure(cfg, h, c, w)
}

// RunMarkSweep measures the non-generational mark/sweep collector, whose
// expected mark/cons ratio is 1/(L−1).
func RunMarkSweep(cfg DecayConfig) Result {
	cfg = cfg.withDefaults()
	h := heap.New()
	c := marksweep.New(h, cfg.HeapWords())
	w := decay.NewWorkload(h, cfg.HalfLife, cfg.Seed, cfg.workloadOpts()...)
	return measure(cfg, h, c, w)
}

// RunSemispace measures the non-generational stop-and-copy collector with a
// semispace of N words (total 2N, as the paper's accounting also hides).
func RunSemispace(cfg DecayConfig) Result {
	cfg = cfg.withDefaults()
	h := heap.New()
	c := semispace.New(h, cfg.HeapWords())
	w := decay.NewWorkload(h, cfg.HalfLife, cfg.Seed, cfg.workloadOpts()...)
	return measure(cfg, h, c, w)
}

// RunNonPredictive measures the paper's collector: K steps over N words,
// with j chosen as ⌊g·k⌋ after each collection (FractionJ keeps f = g, the
// Theorem 4 regime, by never letting j exceed the empty young steps).
func RunNonPredictive(cfg DecayConfig) Result {
	cfg = cfg.withDefaults()
	h := heap.New()
	stepWords := cfg.HeapWords() / cfg.K
	c := core.New(h, cfg.K, stepWords, core.WithPolicy(core.FractionJ(cfg.G)))
	w := decay.NewWorkload(h, cfg.HalfLife, cfg.Seed, cfg.workloadOpts()...)
	r := measure(cfg, h, c, w)
	r.Collector = fmt.Sprintf("non-predictive g=%.2f", cfg.G)
	return r
}

// RunConventionalGenerational measures the conventional youngest-first
// generational collector, which Section 3 predicts does *worse* than the
// non-generational collectors under radioactive decay: the nursery holds
// the objects with the least time to decay, so minor collections copy
// almost everything.
func RunConventionalGenerational(cfg DecayConfig) Result {
	cfg = cfg.withDefaults()
	h := heap.New()
	total := cfg.HeapWords()
	nursery := int(float64(total) * cfg.NurseryFraction)
	c := generational.New(h, nursery, total-nursery)
	w := decay.NewWorkload(h, cfg.HalfLife, cfg.Seed, cfg.workloadOpts()...)
	return measure(cfg, h, c, w)
}
