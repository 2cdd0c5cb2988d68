// Differential tests for incremental collection (DESIGN.md "Incremental
// collection"): for every collector configuration, a run with the insertion
// barrier, mark slices, and lazy sweeping enabled must be invisible to the
// mutator — identical mutator statistics and, after a final synchronizing
// collection, an identical live-object census — compared with the
// stop-the-world run of the same seeded workload. Collectors without an
// incremental mode ignore the flag, so the same pin covers them trivially
// and guards against the flag leaking side effects anywhere else.
package conformance

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

// incrementalRun plays the seeded workload with incremental collection
// enabled, ending on a forced collection so the heap is fully swept and
// quiescent.
func incrementalRun(t *testing.T, mk func(h *heap.Heap) heap.Collector, seed int64, census bool) (*heap.Heap, heap.Collector) {
	t.Helper()
	h := newHeap(heap.Config{Incremental: true}, census)
	c := mk(h)
	gctest.RandomOps(t, h, c, ops, seed)
	synchronize(c)
	return h, c
}

// synchronize forces enough collections to reclaim every dead object. One is
// not always enough: the non-predictive collectors only collect steps j+1..k,
// and the two modes reach the end of the workload with different step
// contents, so a dead object can sit in an uncollected young step of one run
// but not the other. A second collection covers the formerly-young steps
// (renaming appends them to the collected end, and j <= k-j in every
// configuration here), after which the surviving set is exactly the live set.
func synchronize(c heap.Collector) {
	c.Collect()
	c.Collect()
}

// TestIncrementalShadowModel runs every collector configuration through the
// randomized workload with incremental collection on: the shadow model, the
// per-collection deep verifier, and the final heap.Check must all stay
// clean with collection interleaved into the mutator at slice granularity.
func TestIncrementalShadowModel(t *testing.T) {
	for name, mk := range allCollectors() {
		t.Run(name, func(t *testing.T) {
			h := heap.New(heap.WithConfig(heap.Config{Incremental: true}))
			c := mk(h)
			gctest.RandomOps(t, h, c, ops, 23)
		})
	}
}

// TestIncrementalMatchesStopTheWorld is the conformance pin for the
// incremental mode's semantics: same seeded workload, same collector, with
// and without incremental collection — the mutator statistics must be
// identical and the surviving object multiset after a final synchronizing
// collection must be identical.
func TestIncrementalMatchesStopTheWorld(t *testing.T) {
	for name, mk := range allCollectors() {
		for _, census := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/census=%v", name, census), func(t *testing.T) {
				hs := newHeap(heap.Config{}, census)
				cs := mk(hs)
				gctest.RandomOps(t, hs, cs, ops, 23)
				synchronize(cs)
				stwCensus := liveCensus(hs, cs)

				hi, ci := incrementalRun(t, mk, 23, census)
				if hi.Stats != hs.Stats {
					t.Errorf("mutator stats diverge:\n  incremental    %+v\n  stop-the-world %+v", hi.Stats, hs.Stats)
				}
				incrCensus := liveCensus(hi, ci)
				if len(incrCensus) != len(stwCensus) {
					t.Fatalf("live census size diverges: incremental %d objects, stop-the-world %d",
						len(incrCensus), len(stwCensus))
				}
				for i := range stwCensus {
					if incrCensus[i] != stwCensus[i] {
						t.Errorf("live census diverges at object %d:\n  incremental    %s\n  stop-the-world %s",
							i, incrCensus[i], stwCensus[i])
						break
					}
				}
				if err := heap.VerifyCollector(hi, ci); err != nil {
					t.Errorf("incremental heap fails verification: %v", err)
				}
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
