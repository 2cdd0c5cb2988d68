package collectors

import (
	"runtime"
	"slices"
	"testing"

	"rdgc/internal/heap"
)

// TestGridNpmsBuildsOneStep: npms on the grid runs at eight steps of the
// whole budget, and constructing it and allocating once gives memory to the
// step the allocation cursor starts on and to nothing else — the other
// seven steps and the eight shadows are reservations, still counted in the
// footprint. At nboyer's budget (2^18 words) that allocates 2.1 MB; with
// every step given its memory it allocated 17.05 MB. The bound sits
// between, so steps made with memory again fail here.
func TestGridNpmsBuildsOneStep(t *testing.T) {
	const bound = 4 << 20
	grid := Grid(1 << 18)
	nc := grid[slices.IndexFunc(grid, func(nc Named) bool { return nc.Name == "npms" })]
	h := heap.New(heap.WithConfig(heap.Config{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nc.New(h)
	s := h.Scope()
	h.Cons(h.Fix(1), h.Null())
	s.Close()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Errorf("constructing npms at 2^18 words and allocating once allocated %d bytes, want under %d", got, bound)
	}
	if got := h.FootprintWords(); got != 4194304 {
		t.Errorf("footprint %d words, want 4194304: eight steps and eight shadows of 2^18", got)
	}
}
