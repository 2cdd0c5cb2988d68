// Differential tests for the parallel tracing engines, layered by the
// strength of the determinism contract (DESIGN.md "Parallel tracing"):
//
//  1. Mark-only collectors: the parallel marker's CAS claims make the mark
//     set — and therefore the sweep, the free lists, and every subsequent
//     allocation — bit-identical to sequential. Whole-run heap images are
//     compared word for word at every worker count (and, for every
//     configuration, at workers=1, which is the sequential engines).
//  2. Single-target copiers: exact-fit reservation means the same words
//     land in the same target (in racy order), so whole-run mutator Stats,
//     GCStats, and every space's Top are identical; images are not.
//  3. Everything (all twelve configurations): parallel packing across
//     multiple targets can diverge from sequential first-fit near full
//     targets, so the whole-run contract is semantic — verifier-clean
//     heaps, shadow-model agreement, identical mutator Stats — plus a
//     single-collection identity check: from a bit-identical pre-state,
//     one parallel collection must produce the same GCStats delta and the
//     same live-object census as one sequential collection.
package conformance

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

var parallelWorkerCounts = []int{1, 2, 4, 8}

// captureAt is captureRun with a tracing-worker count applied to the
// heap for the whole workload, on the exact-fit engines: every caller pins
// an identity allocation buffers do not promise (lab_test.go has theirs).
func captureAt(t *testing.T, mk func(h *heap.Heap) heap.Collector, seed int64, census bool, workers int) heapImage {
	t.Helper()
	h := gctest.NewHeap(func(c *heap.Config) { c.Workers, c.LAB = workers, false }, censusOpts(census)...)
	c := mk(h)
	gctest.RandomOps(t, h, c, ops, seed)
	c.Collect()
	img := heapImage{stats: h.Stats, gc: *c.GCStats()}
	for _, s := range h.Spaces {
		img.spaces = append(img.spaces, spaceImage{
			name: s.Name,
			top:  s.Top,
			mem:  append([]heap.Word(nil), s.Mem[:s.Top]...),
		})
	}
	return img
}

// TestParallelMarkImagesIdentical is the strictest tier: bit-identical
// whole-run heap images against workers=0. The mark-only collectors must
// produce them at every worker count, because marking is idempotent and
// order-free; every other configuration must produce them at workers=1,
// which selects the same sequential engines as 0.
func TestParallelMarkImagesIdentical(t *testing.T) {
	markOnly := map[string]bool{"marksweep": true, "npms-nocompact": true}
	for name, mk := range collectors() {
		counts := []int{1}
		if markOnly[name] {
			counts = parallelWorkerCounts
		}
		for _, census := range []bool{false, true} {
			seq := captureAt(t, mk, 11, census, 0)
			for _, workers := range counts {
				t.Run(fmt.Sprintf("%s/census=%v/workers=%d", name, census, workers), func(t *testing.T) {
					par := captureAt(t, mk, 11, census, workers)
					compareImages(t, par, seq)
				})
			}
		}
	}
}

// TestParallelSingleTargetStatsIdentical covers the copying collectors
// whose every collection has a single target: exact-fit reservation keeps
// whole-run Stats, GCStats, and space occupancy identical to sequential
// even though in-target object order races.
func TestParallelSingleTargetStatsIdentical(t *testing.T) {
	all := collectors()
	for _, name := range []string{"semispace", "generational", "generational-ssb"} {
		mk := all[name]
		for _, census := range []bool{false, true} {
			seq := captureAt(t, mk, 17, census, 0)
			for _, workers := range parallelWorkerCounts {
				t.Run(fmt.Sprintf("%s/census=%v/workers=%d", name, census, workers), func(t *testing.T) {
					par := captureAt(t, mk, 17, census, workers)
					if par.stats != seq.stats {
						t.Errorf("mutator stats diverge: parallel %+v, sequential %+v", par.stats, seq.stats)
					}
					if par.gc != seq.gc {
						t.Errorf("GCStats diverge:\n  parallel   %+v\n  sequential %+v", par.gc, seq.gc)
					}
					if len(par.spaces) != len(seq.spaces) {
						t.Fatalf("space count diverges: parallel %d, sequential %d", len(par.spaces), len(seq.spaces))
					}
					for i := range par.spaces {
						if par.spaces[i].name != seq.spaces[i].name || par.spaces[i].top != seq.spaces[i].top {
							t.Errorf("space %d occupancy diverges: parallel %s top=%d, sequential %s top=%d",
								i, par.spaces[i].name, par.spaces[i].top, seq.spaces[i].name, seq.spaces[i].top)
						}
					}
				})
			}
		}
	}
}

// TestParallelShadowModel runs every collector configuration through the
// full randomized workload at every worker count: the shadow model, the
// per-collection deep verifier (installed by RandomOps), and the final
// heap.Check must all stay clean.
func TestParallelShadowModel(t *testing.T) {
	for name, mk := range collectors() {
		for _, workers := range parallelWorkerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				h := gctest.NewHeap(func(c *heap.Config) { c.Workers = workers })
				c := mk(h)
				gctest.RandomOps(t, h, c, ops, 7)
			})
		}
	}
}

// liveCensus builds an order-independent multiset of the live objects in
// the collector's verifiable spaces: one signature per object covering its
// type, size, and non-pointer payload (pointer slots are reduced to a
// placeholder because addresses legitimately differ between runs).
func liveCensus(h *heap.Heap, c heap.Collector) []string {
	var live []*heap.Space
	if v, ok := c.(heap.Verifiable); ok {
		live = v.VerifySpec().Live
	}
	if live == nil {
		live = h.Spaces
	}
	var sigs []string
	var b strings.Builder
	for _, s := range live {
		for off := 0; off < s.Top; {
			hdr := s.Mem[off]
			n := heap.ObjWords(hdr)
			if heap.HeaderType(hdr) != heap.TFree {
				b.Reset()
				fmt.Fprintf(&b, "t%d n%d", heap.HeaderType(hdr), heap.HeaderSize(hdr))
				raw := heap.RawPayload(heap.HeaderType(hdr))
				for i := off + 1; i < off+n; i++ {
					w := s.Mem[i]
					if !raw && heap.IsPtr(w) {
						b.WriteString(" P")
					} else {
						fmt.Fprintf(&b, " %x", uint64(w))
					}
				}
				sigs = append(sigs, b.String())
			}
			off += n
		}
	}
	sort.Strings(sigs)
	return sigs
}

// TestParallelCollectionIdentity drives two heaps per collector through an
// identical sequential history, then forces one collection sequentially on
// one heap and in parallel on the other. From a bit-identical pre-state the
// parallel collection must yield identical GCStats, an identical live
// census, a verifier-clean heap, and shadow-model agreement — for all
// twelve configurations, including the multi-target collectors whose
// whole-run images may diverge.
func TestParallelCollectionIdentity(t *testing.T) {
	const identityOps = 2000
	for name, mk := range collectors() {
		for _, census := range []bool{false, true} {
			for _, workers := range parallelWorkerCounts {
				t.Run(fmt.Sprintf("%s/census=%v/workers=%d", name, census, workers), func(t *testing.T) {
					run := func(gcWorkers int) (*heap.Heap, heap.Collector, *gctest.Mutator) {
						// Pin the history to the sequential engines whatever
						// RDGC_GC_WORKERS seeded (ci.sh runs this package at
						// 4): a parallel history packs multi-target copies by
						// schedule, and the two heaps would part before the
						// collection under test.
						h := gctest.NewHeap(func(c *heap.Config) { c.Workers = 0 }, censusOpts(census)...)
						c := mk(h)
						src := rand.New(rand.NewSource(31))
						m := gctest.NewMutator(h, src)
						for i := 0; i < identityOps; i++ {
							m.Op(src.Intn(10))
						}
						// Only the final forced collection differs between
						// the heaps.
						cfg := h.Config()
						cfg.Workers = gcWorkers
						h.SetConfig(cfg)
						c.Collect()
						return h, c, m
					}
					hs, cs, ms := run(0)
					hp, cp, mp := run(workers)

					if *cs.GCStats() != *cp.GCStats() {
						t.Errorf("GCStats diverge after the forced collection:\n  sequential %+v\n  parallel   %+v",
							*cs.GCStats(), *cp.GCStats())
					}
					if hs.Stats != hp.Stats {
						t.Errorf("mutator stats diverge: sequential %+v, parallel %+v", hs.Stats, hp.Stats)
					}
					seqCensus, parCensus := liveCensus(hs, cs), liveCensus(hp, cp)
					if len(seqCensus) != len(parCensus) {
						t.Fatalf("live census size diverges: sequential %d objects, parallel %d",
							len(seqCensus), len(parCensus))
					}
					for i := range seqCensus {
						if seqCensus[i] != parCensus[i] {
							t.Errorf("live census diverges at object %d:\n  sequential %s\n  parallel   %s",
								i, seqCensus[i], parCensus[i])
							break
						}
					}
					if err := heap.VerifyCollector(hp, cp); err != nil {
						t.Errorf("parallel heap fails verification: %v", err)
					}
					if err := mp.Verify(); err != nil {
						t.Errorf("parallel heap fails shadow verification: %v", err)
					}
					if err := ms.Verify(); err != nil {
						t.Errorf("sequential control fails shadow verification: %v", err)
					}
				})
			}
		}
	}
}
