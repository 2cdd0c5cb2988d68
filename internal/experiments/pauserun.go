package experiments

import (
	"fmt"
	"time"

	"rdgc/internal/bench"
	"rdgc/internal/decay"
	"rdgc/internal/gc/marksweep"
	"rdgc/internal/gc/npms"
	"rdgc/internal/heap"
)

// PauseRun is one (workload, collector, mode) pause-distribution
// measurement: the headline numbers behind the incremental-collection
// claim. Pause sizes are words of collector work per mutator-visible pause
// — whole collections in stop-the-world mode; root scans, mark slices,
// lazy sweeps, and termination in incremental mode.
type PauseRun struct {
	Workload    string
	Collector   string
	Incremental bool
	// SliceBudget is the words-per-slice budget an incremental run used (0
	// means the heap default); meaningless when Incremental is false.
	SliceBudget     int
	AllocWords      uint64
	GCWorkWords     uint64
	Collections     int
	Pauses          uint64
	PauseP50Words   uint64
	PauseP99Words   uint64
	MaxPauseWords   uint64
	TotalPauseWords uint64
	WallNS          int64
	Err             error
}

// pauseHeap builds a heap under the process default with the requested
// collection mode; sliceBudget 0 keeps the default's budget.
func pauseHeap(incremental bool, sliceBudget int) *heap.Heap {
	cfg := heap.DefaultConfig()
	cfg.Incremental = incremental
	if sliceBudget > 0 {
		cfg.SliceBudget = sliceBudget
	}
	return heap.New(heap.WithConfig(cfg))
}

// pauseCollector constructs the named incremental-capable collector on h,
// sized for a workload whose comfortable heap is total words; npmsStep
// sizes the non-predictive collector's 16 steps, since it cannot grow (the
// decay grid uses its proven tight sizing; the registry programs get a 2x
// margin against fragmentation). The two mark/sweep collectors are the ones
// with an incremental mode.
func pauseCollector(name string, h *heap.Heap, total, npmsStep int) (heap.Collector, error) {
	switch name {
	case "marksweep":
		return marksweep.New(h, total, marksweep.WithExpansion(2)), nil
	case "npms":
		return npms.New(h, 16, npmsStep), nil
	}
	return nil, fmt.Errorf("pauserun: no incremental-capable collector %q", name)
}

// finishPauseRun fills the measurement from the collector's statistics.
func finishPauseRun(r PauseRun, h *heap.Heap, c heap.Collector, wall time.Duration) PauseRun {
	g := c.GCStats()
	r.AllocWords = h.Stats.WordsAllocated
	r.GCWorkWords = g.WordsCopied + g.WordsMarked + uint64(bench.SweepDiscount*float64(g.WordsSwept))
	r.Collections = g.Collections
	r.Pauses = g.Pauses.Count
	r.PauseP50Words = g.Pauses.P50()
	r.PauseP99Words = g.Pauses.P99()
	r.MaxPauseWords = g.MaxPauseWords
	r.TotalPauseWords = g.TotalPauseWords
	r.WallNS = wall.Nanoseconds()
	return r
}

// RunDecayPauses measures the pause distribution of the radioactive-decay
// workload (the repository's decay-grid configuration: half-life 768,
// L = 3.5) on the named collector, stop-the-world or incremental at the
// given slice budget.
func RunDecayPauses(collector string, steps int, incremental bool, sliceBudget int) PauseRun {
	r := PauseRun{
		Workload:    "decay-768",
		Collector:   collector,
		Incremental: incremental,
		SliceBudget: sliceBudget,
	}
	cfg := DecayConfig{HalfLife: 768, L: 3.5, G: 0.25, K: 16, Steps: steps}
	total := cfg.HeapWords()
	h := pauseHeap(incremental, sliceBudget)
	c, err := pauseCollector(collector, h, total, total/16+total/64)
	if err != nil {
		r.Err = err
		return r
	}
	w := decay.NewWorkload(h, 768, 1)
	w.Warmup(10)
	start := time.Now()
	w.Run(steps)
	return finishPauseRun(r, h, c, time.Since(start))
}

// RunBenchPauses measures the pause distribution of one registry benchmark
// on the named collector, stop-the-world or incremental.
func RunBenchPauses(p bench.Program, collector string, incremental bool, sliceBudget int) PauseRun {
	return RunBenchPausesLogged(p, collector, incremental, sliceBudget, nil)
}

// RunBenchPausesLogged is RunBenchPauses with a raw per-pause hook: log
// (when non-nil) receives every mutator-visible pause, in order, as it is
// recorded — the stream behind gcbench -pauselog.
func RunBenchPausesLogged(p bench.Program, collector string, incremental bool, sliceBudget int, log func(words uint64)) PauseRun {
	r := PauseRun{
		Workload:    p.Name(),
		Collector:   collector,
		Incremental: incremental,
		SliceBudget: sliceBudget,
	}
	h := pauseHeap(incremental, sliceBudget)
	if log != nil {
		h.SetPauseLog(log)
	}
	c, err := pauseCollector(collector, h, p.HeapWords(), p.HeapWords()/8)
	if err != nil {
		r.Err = err
		return r
	}
	start := time.Now()
	res := bench.Measure(p, h, c)
	r = finishPauseRun(r, h, c, time.Since(start))
	r.Err = res.Err
	return r
}
