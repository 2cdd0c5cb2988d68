// Differential test for the tracing fast path: every collector runs the
// same randomized workload twice, once with the fused fast-path tracers and
// once with the retained callback-based reference tracers, and the two runs
// must end with bit-identical heap images and identical mutator and
// collector statistics. Any divergence in from-set membership, scan order,
// census-word or raw-payload handling would change copy order or work
// counts and fail the comparison.
package conformance

import (
	"fmt"
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

type spaceImage struct {
	name string
	top  int
	mem  []heap.Word
}

type heapImage struct {
	spaces []spaceImage
	stats  heap.Stats
	gc     heap.GCStats
}

// captureRun plays the randomized workload on a fresh heap under the
// currently selected tracer and snapshots the final state.
func captureRun(t *testing.T, mk func(h *heap.Heap) heap.Collector, seed int64, census bool) heapImage {
	t.Helper()
	// The zero Config: the reference tracer serves wholesale runs only, so a
	// word-for-word image comparison is only meaningful with both runs
	// stop-the-world and wholesale.
	h := newHeap(heap.Config{}, census)
	c := mk(h)
	// The workload's own roots are globals and its handles are short-lived,
	// so hold one structure from the handle stack throughout: the order the
	// root loops walk (handle stack, then globals) then shows in where every
	// copying collection puts it.
	s := h.Scope()
	defer s.Close()
	held := gctest.BuildList(h, 16)
	img := capture(t, h, c, seed) // ends on a forced collection, so the last trace is compared too
	gctest.CheckList(t, h, held, 16)
	return img
}

func compareImages(t *testing.T, fast, ref heapImage) {
	t.Helper()
	if fast.stats != ref.stats {
		t.Errorf("mutator stats diverge: fast %+v, reference %+v", fast.stats, ref.stats)
	}
	if fast.gc != ref.gc {
		t.Errorf("GCStats diverge:\n  fast      %+v\n  reference %+v", fast.gc, ref.gc)
	}
	if len(fast.spaces) != len(ref.spaces) {
		t.Fatalf("space count diverges: fast %d, reference %d", len(fast.spaces), len(ref.spaces))
	}
	for i := range fast.spaces {
		fs, rs := fast.spaces[i], ref.spaces[i]
		if fs.name != rs.name || fs.top != rs.top {
			t.Errorf("space %d diverges: fast %s top=%d, reference %s top=%d",
				i, fs.name, fs.top, rs.name, rs.top)
			continue
		}
		for off := range fs.mem {
			if fs.mem[off] != rs.mem[off] {
				t.Errorf("space %q word %d diverges: fast %#x, reference %#x",
					fs.name, off, fs.mem[off], rs.mem[off])
				break // one word per space is enough to localize the bug
			}
		}
	}
}

func TestFastTracerMatchesReference(t *testing.T) {
	if heap.ReferenceTracerEnabled() {
		t.Fatal("reference tracer already enabled at test start")
	}
	defer heap.SetReferenceTracer(false)
	for name, mk := range collectors() {
		for _, census := range []bool{false, true} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/census=%v/seed%d", name, census, seed), func(t *testing.T) {
					heap.SetReferenceTracer(false)
					fast := captureRun(t, mk, seed, census)
					heap.SetReferenceTracer(true)
					ref := captureRun(t, mk, seed, census)
					heap.SetReferenceTracer(false)
					compareImages(t, fast, ref)
				})
			}
		}
	}
}
