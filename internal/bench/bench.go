// Package bench defines the allocation-intensive benchmark programs of the
// paper's Section 7 (Table 2) as workloads over the simulated heap, plus
// the registry the experiment harness drives.
//
// Each program runs against any collector, verifies its own result, and —
// because every allocation goes through the simulated heap — yields the
// allocation volumes, survival curves, and gc/mutator ratios of Tables 3–7
// and Figures 2–4.
package bench

import (
	"fmt"

	"rdgc/internal/heap"
)

// Program is one benchmark.
type Program interface {
	// Name is the paper's benchmark name (e.g. "nboyer2").
	Name() string
	// Run executes the benchmark, allocating on h, and returns an error if
	// the computed result is wrong.
	Run(h *heap.Heap) error
	// HeapWords suggests a heap size that runs the program comfortably at
	// a moderate load factor.
	HeapWords() int
}

// Info is a Table 2 row.
type Info struct {
	Name        string
	Lines       int // lines of Go source implementing the benchmark
	Description string
}

// RunResult captures the Table 3 measurements for one (program, collector)
// pair. "Time" is measured in words: mutator work is words allocated and gc
// work is words copied plus marked (plus swept at the sweep discount).
type RunResult struct {
	Program        string
	Collector      string
	WordsAllocated uint64
	PeakLiveWords  int
	// FootprintWords is the heap's reserved footprint at the end of the run
	// (blocks reserved across every space times the block size): the memory
	// a real process would hold from the OS, as opposed to occupancy. Spaces
	// are never released, so the final footprint is also the maximum.
	FootprintWords int
	GCWorkWords    uint64
	Collections    int
	// Pauses is the distribution of every mutator-visible pause the run
	// recorded (whole collections when stop-the-world; slices, on-demand
	// sweeps, and termination when incremental), in words of collector work.
	Pauses     heap.PauseHist
	RemsetPeak int
	Err        error
}

// GCMutatorRatio is the Table 3 column (gc time)/(mutator time), using
// traced words over allocated words.
func (r RunResult) GCMutatorRatio() float64 {
	if r.WordsAllocated == 0 {
		return 0
	}
	return float64(r.GCWorkWords) / float64(r.WordsAllocated)
}

func (r RunResult) String() string {
	return fmt.Sprintf("%-10s %-14s alloc %8.2f Mwords  peak %7.3f Mwords  gc/mutator %5.1f%%  collections %4d",
		r.Program, r.Collector, float64(r.WordsAllocated)/1e6,
		float64(r.PeakLiveWords)/1e6, 100*r.GCMutatorRatio(), r.Collections)
}

// SweepDiscount weights sweep work relative to trace work in the gc-work
// metric: sweeping touches words linearly but does far less per word than
// tracing. The paper notes both collectors it compares have similar sweep
// overheads, so the discount mostly cancels in ratios.
const SweepDiscount = 0.2

// Measure runs p on h under collector c. Peak storage is estimated from
// post-collection occupancies (plus the final occupancy), the same way the
// paper's "peak storage (estimated)" column derives from semiheap sizes.
func Measure(p Program, h *heap.Heap, c heap.Collector) RunResult {
	err := p.Run(h)

	g := c.GCStats()
	peak := g.PeakLive
	if live := c.Live(); live > peak {
		peak = live
	}
	return RunResult{
		Program:        p.Name(),
		Collector:      c.Name(),
		WordsAllocated: h.Stats.WordsAllocated,
		PeakLiveWords:  peak,
		FootprintWords: h.FootprintWords(),
		GCWorkWords:    g.WordsCopied + g.WordsMarked + uint64(SweepDiscount*float64(g.WordsSwept)),
		Collections:    g.Collections,
		Pauses:         g.Pauses,
		RemsetPeak:     g.RemsetPeak,
		Err:            err,
	}
}
