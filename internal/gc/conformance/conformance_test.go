// Package conformance cross-checks every collector against the shadow
// model: thousands of random mutator operations mirrored in native Go
// structures, verified after forced collections. Any lost update, missed
// barrier, or broken renaming shows up as a divergence.
package conformance

import (
	"fmt"
	"testing"

	"rdgc/internal/core"
	"rdgc/internal/gc/gctest"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/hybrid"
	"rdgc/internal/gc/marksweep"
	"rdgc/internal/gc/multigen"
	"rdgc/internal/gc/npms"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

const ops = 4000

func collectors() map[string]func(h *heap.Heap) heap.Collector {
	return map[string]func(h *heap.Heap) heap.Collector{
		"semispace": func(h *heap.Heap) heap.Collector {
			return semispace.New(h, 8192, semispace.WithExpansion(2))
		},
		"marksweep": func(h *heap.Heap) heap.Collector {
			return marksweep.New(h, 8192, marksweep.WithExpansion(2))
		},
		"generational": func(h *heap.Heap) heap.Collector {
			return generational.New(h, 1024, 16384, generational.WithExpansion(2))
		},
		"generational-ssb": func(h *heap.Heap) heap.Collector {
			return generational.New(h, 1024, 16384,
				generational.WithExpansion(2), generational.WithRemset(remset.NewSSB()))
		},
		"nonpredictive": func(h *heap.Heap) heap.Collector {
			return core.New(h, 8, 1024, core.WithGrowth())
		},
		"nonpredictive-fixedj": func(h *heap.Heap) heap.Collector {
			return core.New(h, 8, 1024, core.WithGrowth(), core.WithPolicy(core.FixedJ(3)))
		},
		"nonpredictive-zeroj": func(h *heap.Heap) heap.Collector {
			return core.New(h, 4, 2048, core.WithGrowth(), core.WithPolicy(core.ZeroJ{}))
		},
		"hybrid": func(h *heap.Heap) heap.Collector {
			return hybrid.New(h, 512, 8, 1024, hybrid.WithGrowth())
		},
		"hybrid-fixedj": func(h *heap.Heap) heap.Collector {
			return hybrid.New(h, 512, 8, 1024,
				hybrid.WithGrowth(), hybrid.WithPolicy(core.FixedJ(2)))
		},
		"multigen": func(h *heap.Heap) heap.Collector {
			return multigen.New(h, []int{1024, 2048, 16384}, multigen.WithExpansion(2))
		},
		"npms": func(h *heap.Heap) heap.Collector {
			return npms.New(h, 8, 2048)
		},
		"npms-nocompact": func(h *heap.Heap) heap.Collector {
			return npms.New(h, 8, 2048, npms.WithCompactEvery(0))
		},
	}
}

// censusOpts is the heap options of a run with or without birth stamps.
func censusOpts(census bool) []heap.Option {
	if census {
		return []heap.Option{heap.WithCensus()}
	}
	return nil
}

func TestShadowModel(t *testing.T) {
	for name, mk := range collectors() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				h := heap.New()
				c := mk(h)
				gctest.RandomOps(t, h, c, ops, seed)
			})
		}
	}
}

func TestShadowModelWithCensus(t *testing.T) {
	for name, mk := range collectors() {
		t.Run(name, func(t *testing.T) {
			h := heap.New(heap.WithCensus())
			c := mk(h)
			gctest.RandomOps(t, h, c, ops, 99)
		})
	}
}
