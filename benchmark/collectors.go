package main

import (
	"rdgc/internal/core"
	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/hybrid"
	"rdgc/internal/gc/marksweep"
	"rdgc/internal/gc/multigen"
	"rdgc/internal/gc/npms"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

// namedCollector is a constructor under its collectorKeys name.
type namedCollector struct {
	key string
	new func(h *heap.Heap) heap.Collector
}

// barriered reports whether a collector installs itself as the heap's write
// barrier when it runs stop-the-world; the barrier shim wraps only those.
// (The heap has no getter for its barrier, and marksweep implements
// RecordWrite for its incremental mode without installing it otherwise.)
func barriered(key string) bool { return key != "semispace" && key != "marksweep" }

// fixedCollectors builds the seven collectors over a fixed heap of total
// words from their public constructors, sized exactly as internal/experiments
// sizes them for the decay workload (= `rdmsim -all`): generation fraction g,
// k steps, a 1/8 nursery, three multigen generations. smoke_test.go pins the
// equivalence against experiments.Run*.
func fixedCollectors(total int, g float64, k int) []namedCollector {
	nursery := int(float64(total) * (1.0 / 8))
	return []namedCollector{
		{"semispace", func(h *heap.Heap) heap.Collector { return semispace.New(h, total) }},
		{"marksweep", func(h *heap.Heap) heap.Collector { return marksweep.New(h, total) }},
		{"generational", func(h *heap.Heap) heap.Collector {
			return generational.New(h, nursery, total-nursery)
		}},
		{"nonpredictive", func(h *heap.Heap) heap.Collector {
			return core.New(h, k, total/k, core.WithPolicy(core.FractionJ(g)))
		}},
		{"hybrid", func(h *heap.Heap) heap.Collector {
			hk := k
			if max := 2 * (total - nursery) / nursery; hk > max && max >= 2 {
				hk = max // the step size must be at least half the nursery size
			}
			return hybrid.New(h, nursery, hk, (total-nursery)/hk, hybrid.WithPolicy(core.FractionJ(g)))
		}},
		{"multigen", func(h *heap.Heap) heap.Collector {
			const gens = 3
			sizes := make([]int, gens)
			rem := total
			for i := 0; i < gens-1; i++ {
				sizes[i] = total >> (gens - i)
				rem -= sizes[i]
			}
			sizes[gens-1] = rem
			return multigen.New(h, sizes)
		}},
		{"npms", func(h *heap.Heap) heap.Collector {
			return npms.New(h, k, total/k, npms.WithG(g))
		}},
	}
}

// growingCollectors is gcfuzz.CollectorsSized — the grid gcbench and gctrace
// replay under, with growth enabled wherever it exists — under our type.
func growingCollectors(total int) []namedCollector {
	var out []namedCollector
	for _, nc := range gcfuzz.CollectorsSized(total) {
		out = append(out, namedCollector{nc.Name, nc.New})
	}
	return out
}

func pickCollectors(all []namedCollector, keys ...string) []namedCollector {
	var out []namedCollector
	for _, k := range keys {
		for _, nc := range all {
			if nc.key == k {
				out = append(out, nc)
			}
		}
	}
	return out
}
