package generational

import (
	"testing"

	"rdgc/internal/heap"
)

// fillNursery hand-allocates a chain of n pairs directly in the nursery
// (car = fixnum, cdr = previous pair), bypassing the Go-level allocation the
// Ref API would do, and returns the head pointer.
func fillNursery(tb testing.TB, c *Collector, h *heap.Heap, n int) heap.Word {
	prev := heap.NullWord
	for i := 0; i < n; i++ {
		off, ok := c.young.Space().Bump(3)
		if !ok {
			tb.Fatalf("nursery too small for %d pairs", n)
		}
		w := h.InitObject(c.young.Space(), off, heap.TPair, 2)
		c.young.Space().Mem[off+1] = heap.FixnumWord(int64(i))
		c.young.Space().Mem[off+2] = prev
		prev = w
	}
	return prev
}

// TestMinorSteadyStateZeroAllocs guards the minor-collection hot path: a
// promoting collection that evacuates roots, scans a remembered set, and
// clears it must not allocate any Go objects once warmed up.
func TestMinorSteadyStateZeroAllocs(t *testing.T) {
	h := heap.New(heap.WithConfig(heap.Config{})) // the sequential engine promoting wholesale, whatever the environment pins
	c := New(h, 2048, 1<<16)

	// One permanently live old object whose car will point into the nursery,
	// giving every minor collection a remembered-set entry to scan.
	h.GlobalWord(fillNursery(t, c, h, 1))
	c.Minor(0) // promotes it to the old area; warms up the evacuator + remset
	var oldObj heap.Word
	h.VisitRoots(func(slot *heap.Word) {
		if heap.IsPtr(*slot) {
			oldObj = *slot
		}
	})
	if oldObj == 0 || heap.PtrSpace(oldObj) != c.oldFrom.ID {
		t.Fatalf("expected the rooted pair in the old area, got %v", oldObj)
	}

	cycle := func() {
		head := fillNursery(t, c, h, 100)
		h.SpaceOf(oldObj).Mem[heap.PtrOff(oldObj)+1] = head
		c.RecordWrite(oldObj, head)
		c.Minor(0)
	}
	cycle() // warmup: hash-set table and pause histogram size themselves

	before := c.stats.Collections
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Errorf("steady-state minor collection allocates %.0f objects/run, want 0", allocs)
	}
	if c.stats.Collections == before || c.stats.WordsPromoted == 0 {
		t.Fatal("no promotion happened; the guard must measure real minor collections")
	}
}
