// Differential tests for the parallel evacuator's block-granular allocation
// buffers (LAB mode, heap.Config.LAB). Buffered reservation trades the
// exact-fit engine's Top identity for per-worker bump allocation: Top
// becomes schedule-dependent (whole blocks are claimed, tails are retired as
// TFree filler), but the filler is accounted in Space.Waste, so Used(),
// GCStats, and the live census stay collection-deterministic at any worker
// count — the "per-block-accountable" tier of the determinism contract.
package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

// perSpaceUsedParity names the collectors whose every collection has a
// single copy target (or moves nothing at all): for these, buffered
// occupancy is pinned per space, not just in aggregate.
var perSpaceUsedParity = map[string]bool{
	"marksweep":        true,
	"npms-nocompact":   true,
	"semispace":        true,
	"generational":     true,
	"generational-ssb": true,
}

// TestLABCollectionIdentity mirrors TestParallelCollectionIdentity with
// allocation buffers enabled: from a bit-identical sequential pre-state, one
// buffered parallel collection must produce the same GCStats delta, the same
// live census, the same Used() occupancy — space by space for the
// perSpaceUsedParity collectors, in aggregate for the rest — and a
// verifier-clean, shadow-clean heap.
func TestLABCollectionIdentity(t *testing.T) {
	const identityOps = 2000
	for name, mk := range collectors() {
		for _, workers := range parallelWorkerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				run := func(gcWorkers int, lab bool) (*heap.Heap, heap.Collector, *gctest.Mutator) {
					// The history runs on the sequential engines, as in
					// TestParallelCollectionIdentity.
					h := gctest.NewHeap(func(c *heap.Config) { c.Workers, c.LAB = 0, false })
					c := mk(h)
					src := rand.New(rand.NewSource(53))
					m := gctest.NewMutator(h, src)
					for i := 0; i < identityOps; i++ {
						m.Op(src.Intn(10))
					}
					cfg := h.Config()
					cfg.Workers, cfg.LAB = gcWorkers, lab
					h.SetConfig(cfg)
					c.Collect()
					return h, c, m
				}
				hs, cs, _ := run(0, false)
				hp, cp, mp := run(workers, true)

				if *cs.GCStats() != *cp.GCStats() {
					t.Errorf("GCStats diverge under LAB:\n  sequential %+v\n  buffered   %+v",
						*cs.GCStats(), *cp.GCStats())
				}
				if hs.Stats != hp.Stats {
					t.Errorf("mutator stats diverge: sequential %+v, buffered %+v", hs.Stats, hp.Stats)
				}
				// Per-block accountability: occupancy (Top less retired
				// filler) matches the exact-fit sequential run even though Top
				// itself may not. For the multi-target collectors parallel
				// packing legitimately shifts objects between targets (PR 5's
				// tier-3 contract) — and on a growing step heap which worker's
				// filler lands where can tip one more step into existence — so
				// their guarantee is aggregate; the single-target and
				// non-moving collectors pin the space list and every space.
				totalSeq, totalPar := 0, 0
				for _, ss := range hs.Spaces {
					totalSeq += ss.Used()
				}
				for _, sp := range hp.Spaces {
					totalPar += sp.Used()
				}
				if totalSeq != totalPar {
					t.Errorf("aggregate occupancy diverges: sequential %d, buffered %d", totalSeq, totalPar)
				}
				if perSpaceUsedParity[name] {
					if len(hs.Spaces) != len(hp.Spaces) {
						t.Fatalf("space count diverges: sequential %d, buffered %d", len(hs.Spaces), len(hp.Spaces))
					}
					for i, ss := range hs.Spaces {
						sp := hp.Spaces[i]
						if ss.Name != sp.Name {
							t.Fatalf("space %d identity diverges: %s vs %s", i, ss.Name, sp.Name)
						}
						if ss.Used() != sp.Used() {
							t.Errorf("space %d occupancy diverges: sequential %s used=%d, buffered used=%d (top=%d waste=%d)",
								i, ss.Name, ss.Used(), sp.Used(), sp.Top, sp.Waste)
						}
					}
				}
				seqCensus, parCensus := liveCensus(hs, cs), liveCensus(hp, cp)
				if len(seqCensus) != len(parCensus) {
					t.Fatalf("live census size diverges: sequential %d objects, buffered %d",
						len(seqCensus), len(parCensus))
				}
				for i := range seqCensus {
					if seqCensus[i] != parCensus[i] {
						t.Errorf("live census diverges at object %d:\n  sequential %s\n  buffered   %s",
							i, seqCensus[i], parCensus[i])
						break
					}
				}
				if err := heap.VerifyCollector(hp, cp); err != nil {
					t.Errorf("buffered heap fails verification: %v", err)
				}
				if err := mp.Verify(); err != nil {
					t.Errorf("buffered heap fails shadow verification: %v", err)
				}
			})
		}
	}
}

// TestLABShadowModel runs every collector through the full randomized
// workload with allocation buffers on at every worker count: the shadow
// model, the per-collection verifier, and the final heap.Check must stay
// clean even though collection scheduling may drift from the exact-fit runs
// (buffer filler occupies Top earlier).
func TestLABShadowModel(t *testing.T) {
	for name, mk := range collectors() {
		for _, workers := range parallelWorkerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				h := gctest.NewHeap(func(c *heap.Config) { c.Workers, c.LAB = workers, true })
				c := mk(h)
				gctest.RandomOps(t, h, c, ops, 19)
			})
		}
	}
}

// TestLABInertBelowTwoWorkers: at workers <= 1 the sequential engines run
// and ignore the LAB setting entirely, so whole-run images match the
// exact-fit baseline bit for bit.
func TestLABInertBelowTwoWorkers(t *testing.T) {
	for _, name := range []string{"semispace", "marksweep", "generational"} {
		mk := collectors()[name]
		t.Run(name, func(t *testing.T) {
			base := captureAt(t, mk, 23, false, 1)
			h := gctest.NewHeap(func(c *heap.Config) { c.Workers, c.LAB = 1, true })
			c := mk(h)
			gctest.RandomOps(t, h, c, ops, 23)
			c.Collect()
			img := heapImage{stats: h.Stats, gc: *c.GCStats()}
			for _, s := range h.Spaces {
				img.spaces = append(img.spaces, spaceImage{
					name: s.Name,
					top:  s.Top,
					mem:  append([]heap.Word(nil), s.Mem[:s.Top]...),
				})
			}
			compareImages(t, img, base)
		})
	}
}
