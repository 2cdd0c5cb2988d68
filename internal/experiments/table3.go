package experiments

import (
	"rdgc/internal/bench"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

// MutatorCostPerWord converts allocated words into mutator-work units for
// the Table 3 gc/mutator percentages: allocating (and computing with) a
// word of storage costs several times more than tracing one. The constant
// calibrates the absolute percentages into the paper's range; every
// comparison between collectors is independent of it.
const MutatorCostPerWord = 8.0

// Table3Row reproduces one row of Table 3: a benchmark measured under the
// non-generational stop-and-copy collector and the conventional
// generational collector.
type Table3Row struct {
	Program      string
	AllocWords   uint64
	PeakWords    int
	SemiWords    int // stop-and-copy semispace size (the paper's column 4)
	StopAndCopy  bench.RunResult
	Generational bench.RunResult
}

// GCRatioSC returns the stop-and-copy (gc time)/(mutator time) estimate.
func (r Table3Row) GCRatioSC() float64 {
	return float64(r.StopAndCopy.GCWorkWords) / (MutatorCostPerWord * float64(r.StopAndCopy.WordsAllocated))
}

// GCRatioGen returns the generational (gc time)/(mutator time) estimate.
func (r Table3Row) GCRatioGen() float64 {
	return float64(r.Generational.GCWorkWords) / (MutatorCostPerWord * float64(r.Generational.WordsAllocated))
}

// Table3Config tunes the harness.
type Table3Config struct {
	// SemiFactor sizes the stop-and-copy semispace as a multiple of the
	// measured peak, as the paper's per-benchmark semiheap choices did
	// (their ratios against estimated peak ranged from about 1.5 to 3).
	SemiFactor float64
	// NurseryDivisor sizes the generational collector's youngest
	// generation as total-allocation/NurseryDivisor; the paper's fixed
	// 1-megabyte nursery was roughly 1/40 of its benchmarks' allocation.
	NurseryDivisor uint64
	// MinNurseryWords and MaxNurseryWords clamp the nursery.
	MinNurseryWords, MaxNurseryWords int
	// GC is the collector configuration every heap of the row is built
	// under.
	GC heap.Config
}

// DefaultTable3Config mirrors the paper's setup at this repository's scale.
func DefaultTable3Config() Table3Config {
	return Table3Config{
		SemiFactor:      2.2,
		NurseryDivisor:  40,
		MinNurseryWords: 2048,
		MaxNurseryWords: 131072,
	}
}

// MeasurePeak runs p once on a small expandable heap (so collections are
// frequent and post-collection occupancy is sampled densely) and returns
// the peak live estimate — the calibration pass behind the paper's "peak
// storage (estimated)" column.
func MeasurePeak(p bench.Program, cfg Table3Config) (peak int, alloc uint64, err error) {
	h := heap.New(heap.WithConfig(cfg.GC))
	c := semispace.New(h, 4096, semispace.WithExpansion(2))
	res := bench.Measure(p, h, c)
	return res.PeakLiveWords, res.WordsAllocated, res.Err
}

// RunTable3Row measures one benchmark under both collectors.
func RunTable3Row(mk func() bench.Program, cfg Table3Config) (Table3Row, error) {
	peak, alloc, err := MeasurePeak(mk(), cfg)
	if err != nil {
		return Table3Row{}, err
	}
	nursery := int(alloc / cfg.NurseryDivisor)
	nursery = max(cfg.MinNurseryWords, min(nursery, cfg.MaxNurseryWords))
	semi := max(int(cfg.SemiFactor*float64(peak)), 5*nursery/2)

	// Stop-and-copy at the calibrated size.
	hSC := heap.New(heap.WithConfig(cfg.GC))
	cSC := semispace.New(hSC, semi, semispace.WithExpansion(cfg.SemiFactor))
	scRes := bench.Measure(mk(), hSC, cSC)
	if scRes.Err != nil {
		return Table3Row{}, scRes.Err
	}

	// Conventional generational: nursery plus an old area sized to touch a
	// little less storage than the stop-and-copy collector.
	hG := heap.New(heap.WithConfig(cfg.GC))
	old := max(semi-nursery, 2*peak+2*nursery)
	cG := generational.New(hG, nursery, old, generational.WithExpansion(2))
	genRes := bench.Measure(mk(), hG, cG)
	if genRes.Err != nil {
		return Table3Row{}, genRes.Err
	}

	return Table3Row{
		Program:      scRes.Program,
		AllocWords:   scRes.WordsAllocated,
		PeakWords:    peak,
		SemiWords:    semi,
		StopAndCopy:  scRes,
		Generational: genRes,
	}, nil
}
