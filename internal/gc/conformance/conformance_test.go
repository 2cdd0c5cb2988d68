// Package conformance cross-checks every collector against the shadow
// model: thousands of random mutator operations mirrored in native Go
// structures, verified after forced collections. Any lost update, missed
// barrier, or broken renaming shows up as a divergence.
package conformance

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rdgc/internal/core"
	"rdgc/internal/gc/gcfuzz"
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

func collectors() map[string]func(h *heap.Heap) heap.Collector { return shrunkCollectors(1) }

// shrunkCollectors is collectors with every space and step size divided by
// div.
func shrunkCollectors(div int) map[string]func(h *heap.Heap) heap.Collector {
	return map[string]func(h *heap.Heap) heap.Collector{
		"semispace": func(h *heap.Heap) heap.Collector {
			return semispace.New(h, 8192/div, semispace.WithExpansion(2))
		},
		"marksweep": func(h *heap.Heap) heap.Collector {
			return marksweep.New(h, 8192/div, marksweep.WithExpansion(2))
		},
		"generational": func(h *heap.Heap) heap.Collector {
			return generational.New(h, 1024/div, 16384/div, generational.WithExpansion(2))
		},
		"generational-ssb": func(h *heap.Heap) heap.Collector {
			return generational.New(h, 1024/div, 16384/div,
				generational.WithExpansion(2), generational.WithRemset(remset.NewSSB()))
		},
		"nonpredictive": func(h *heap.Heap) heap.Collector {
			return core.New(h, 8, 1024/div, core.WithGrowth())
		},
		"nonpredictive-fixedj": func(h *heap.Heap) heap.Collector {
			return core.New(h, 8, 1024/div, core.WithGrowth(), core.WithPolicy(core.FixedJ(3)))
		},
		"nonpredictive-zeroj": func(h *heap.Heap) heap.Collector {
			return core.New(h, 4, 2048/div, core.WithGrowth(), core.WithPolicy(core.ZeroJ{}))
		},
		"hybrid": func(h *heap.Heap) heap.Collector {
			return hybrid.New(h, 512/div, 8, 1024/div, hybrid.WithGrowth())
		},
		"hybrid-fixedj": func(h *heap.Heap) heap.Collector {
			return hybrid.New(h, 512/div, 8, 1024/div,
				hybrid.WithGrowth(), hybrid.WithPolicy(core.FixedJ(2)))
		},
		"multigen": func(h *heap.Heap) heap.Collector {
			return multigen.New(h, []int{1024 / div, 2048 / div, 16384 / div}, multigen.WithExpansion(2))
		},
		"npms": func(h *heap.Heap) heap.Collector {
			return npms.New(h, 8, 2048/div)
		},
		"npms-nocompact": func(h *heap.Heap) heap.Collector {
			return npms.New(h, 8, 2048/div, npms.WithCompactEvery(0))
		},
	}
}

// newHeap builds a heap under cfg, with birth stamps when census is set.
func newHeap(cfg heap.Config, census bool) *heap.Heap {
	if census {
		return heap.New(heap.WithConfig(cfg), heap.WithCensus())
	}
	return heap.New(heap.WithConfig(cfg))
}

// TestShadowModel's short runs: shortRuns seeds of shortOps operations on
// heaps shrunk by shortDiv. At full size a short run collects little more
// than the four times RandomOps forces; shrunk, it collects tens of times
// (seed 1000: generational 28, hybrid 54). Two mutations of multigen's
// remembered-set refilter, skipping it after a window collection and keeping the
// stale entries, fail none of the long seeds and 9 and 29 of seeds
// 1000-1599; shortRuns is the count that catches the rarer with 90% odds.
const (
	shortRuns = 150
	shortOps  = 400
	shortDiv  = 8
)

// TestShadowModel plays each seeded workload on every collector under the
// mode matrix (gcfuzz.Modes from the zero Config): each long seed under
// every mode, short seed s under mode s mod len(matrix). The tenured row's
// threshold is picked by the byte s + s/len(matrix), as a fuzz program's
// byte 2 picks it, so the long seeds run at thresholds 3, 6 and 15 and the
// short seeds that land on the row walk through all five. A long seed's run
// outside the default row carries the row's name after the seed. Where the
// row sets only knobs the collector never reads, the long run would repeat
// the default row's, so that name runs checkInert instead: a collector
// that starts reading a knob fails there, under its name and the row's.
func TestShadowModel(t *testing.T) {
	type run struct {
		seed     int64
		ops, div int
		mode     gcfuzz.Mode
		suffix   string
	}
	var runs []run
	n := int64(len(gcfuzz.Modes(heap.Config{}, nil)))
	modes := func(seed int64) []gcfuzz.Mode { return gcfuzz.Modes(heap.Config{}, []byte{2: byte(seed + seed/n)}) }
	for seed := int64(1); seed <= 3; seed++ {
		for i, m := range modes(seed) {
			suffix := ""
			if i > 0 {
				suffix = "/" + m.Name
			}
			runs = append(runs, run{seed, ops, 1, m, suffix})
		}
	}
	for seed := int64(1000); seed < 1000+shortRuns; seed++ {
		runs = append(runs, run{seed, shortOps, shortDiv, modes(seed)[seed%n], ""})
	}
	base := gcfuzz.Modes(heap.Config{}, nil)[0].Config
	for _, r := range runs {
		for name, mk := range shrunkCollectors(r.div) {
			t.Run(fmt.Sprintf("%s/seed%d%s", name, r.seed, r.suffix), func(t *testing.T) {
				t.Parallel()
				if r.suffix != "" && inert(name, r.mode.Config, base) {
					checkInert(t, shrunkCollectors(shortDiv)[name], r.mode, base, r.seed)
					return
				}
				h := heap.New(heap.WithConfig(r.mode.Config))
				gctest.RandomOps(t, h, mk(h), r.ops, r.seed)
			})
		}
	}
}

// knobs is a set of the Config knobs a mode row can turn, grouped by the
// code that reads them.
type knobs uint8

const (
	incrementalKnobs knobs = 1 << iota // Incremental, SliceBudget: marksweep's and npms's marker
	tenuringKnobs                      // Tenure, Adaptive: the young step of the youngest-first collectors
	allKnobs         = incrementalKnobs | tenuringKnobs
)

// knobsRead is the knobs each collector of shrunkCollectors reads when it
// is built; absent ones read neither.
var knobsRead = map[string]knobs{
	"marksweep":        incrementalKnobs,
	"npms":             incrementalKnobs,
	"npms-nocompact":   incrementalKnobs,
	"generational":     tenuringKnobs,
	"generational-ssb": tenuringKnobs,
	"hybrid":           tenuringKnobs,
	"hybrid-fixedj":    tenuringKnobs,
	"multigen":         tenuringKnobs,
}

// knobsSet returns the knobs in which row differs from base; a difference
// in any field the groups do not name counts as every knob.
func knobsSet(row, base heap.Config) knobs {
	var k knobs
	if row.Incremental != base.Incremental || row.SliceBudget != base.SliceBudget {
		k |= incrementalKnobs
	}
	if row.Tenure != base.Tenure || row.Adaptive != base.Adaptive {
		k |= tenuringKnobs
	}
	rest := row
	rest.Incremental, rest.SliceBudget, rest.Tenure, rest.Adaptive = base.Incremental, base.SliceBudget, base.Tenure, base.Adaptive
	if rest != base {
		k = allKnobs
	}
	return k
}

// inert reports whether the mode row sets no knob the named collector
// reads, so that a run under it repeats the run under base.
func inert(name string, row, base heap.Config) bool { return knobsSet(row, base)&knobsRead[name] == 0 }

// checkInert plays seed for shortOps operations on mk's collector under
// row and under base, and requires the two heap images and GCStats equal:
// the row's knobs, which the collector is listed as never reading, must
// change nothing.
func checkInert(t *testing.T, mk func(h *heap.Heap) heap.Collector, row gcfuzz.Mode, base heap.Config, seed int64) {
	t.Helper()
	run := func(cfg heap.Config) heapImage {
		h := heap.New(heap.WithConfig(cfg))
		return captureOps(t, h, mk(h), shortOps, seed)
	}
	want := run(base)
	if want.gc.Collections == 0 {
		t.Fatal("the short run never collected")
	}
	if got := run(row.Config); !reflect.DeepEqual(got, want) {
		t.Errorf("under the %s row, whose knobs the collector is listed as never reading: %s",
			row.Name, divergence(got, want, row.Name, "default row"))
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

// TestPeakLiveBoundsLive: GCStats.PeakLive is the largest post-collection
// occupancy observed, so after every collection, nursery or full, it is at
// least what the collector then holds. Stop-the-world, because an
// incremental collection hands back to the mutator before its sweep ends.
func TestPeakLiveBoundsLive(t *testing.T) {
	for name, mk := range collectors() {
		t.Run(name, func(t *testing.T) {
			h := heap.New()
			c := mk(h)
			var gcs, short int
			var first string
			h.SetAfterGC(func() {
				gcs++
				if peak, live := c.GCStats().PeakLive, c.Live(); peak < live {
					if short++; short == 1 {
						first = fmt.Sprintf("collection %d: PeakLive %d < Live() %d", gcs, peak, live)
					}
				}
			})
			defer h.SetAfterGC(nil)
			src := rand.New(rand.NewSource(7))
			m := gctest.NewMutator(h, src)
			for range ops {
				m.Op(src.Intn(10))
			}
			if gcs == 0 {
				t.Fatal("the workload never collected")
			}
			if short > 0 {
				t.Errorf("PeakLive fell short of Live() after %d of %d collections; first at %s", short, gcs, first)
			}
		})
	}
}
