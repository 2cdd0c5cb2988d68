// The cross-heap contract. The mark, copy and sweep engines are sequential
// and a Heap is single-threaded; the parallelism the drivers exploit is
// across heaps, one per goroutine (the runner's -parallel pool, gcserve's
// shards), and those heaps share no live state: at most an arena recycler,
// which hands memory from a released heap to a new one, cleared.
// TestHeapsShareNothing is the one test of that contract.
package conformance

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"rdgc/internal/experiments"
	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

// copies is how many copies of every cell run in the concurrent batch.
const copies = 2

// cell is one workload of TestHeapsShareNothing: run builds a heap of its
// own, drives it, and returns the result every copy is held to.
type cell struct {
	name string
	run  func(t *testing.T) any
}

// TestHeapsShareNothing runs every cell alone, then copies of every cell
// whose lone run passed, all at once as parallel subtests — one batch, so
// different collectors overlap too — and requires each copy to equal its
// cell's lone result: whole-run heap images, ordinal graphs, trace bytes,
// replay statistics and decay measurements. Under -race the batch also fails if anything a heap reaches
// (engines, remembered sets, step machinery, the trace codec, the experiment
// runner) is shared between goroutines. The one thing heaps may share is an
// arena recycler (heap.Arenas): the recycled cells release into one, and
// their images must not show it.
func TestHeapsShareNothing(t *testing.T) {
	cells := heapCells(t)
	lone := make([]any, len(cells))
	passed := make([]bool, len(cells))
	for i, c := range cells {
		passed[i] = t.Run(c.name+"/lone", func(t *testing.T) { lone[i] = c.run(t) })
	}
	for i, c := range cells {
		if !passed[i] {
			continue
		}
		for n := range copies {
			t.Run(fmt.Sprintf("%s/copy%d", c.name, n), func(t *testing.T) {
				t.Parallel()
				if got := c.run(t); !reflect.DeepEqual(got, lone[i]) {
					t.Error(divergence(got, lone[i], "copy", "lone run"))
				}
			})
		}
	}
}

// heapCells is the table TestHeapsShareNothing runs: every mode a heap can
// be driven in, as far as the conformance workloads reach it.
func heapCells(t *testing.T) []cell {
	all := collectors()
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	var cells []cell
	for _, name := range names {
		mk := all[name]
		for _, census := range []bool{false, true} {
			cells = append(cells, cell{fmt.Sprintf("%s/census=%v", name, census), func(t *testing.T) any {
				h := newHeap(heap.Config{}, census)
				c := mk(h)
				img := capture(t, h, c, 11)
				checkPacked(t, h, c)
				return img
			}})
		}
		cells = append(cells, cell{name + "/identity", func(t *testing.T) any {
			return runIdentified(t, mk, true, 1)
		}})
	}
	for _, name := range []string{"marksweep", "npms", "npms-nocompact"} {
		mk := all[name]
		cells = append(cells, cell{name + "/incremental", func(t *testing.T) any {
			h := heap.New(heap.WithConfig(heap.Config{Incremental: true}))
			return capture(t, h, mk(h), 23)
		}})
	}
	tenuring := tenuringCollectors()
	for _, name := range []string{"generational", "hybrid", "multigen"} {
		mk := tenuring[name]
		for _, tenure := range []int{3, heap.TenureNever, 0} {
			label := fmt.Sprintf("tenure=%d", tenure)
			if tenure == 0 {
				label = "adaptive"
			}
			cells = append(cells, cell{name + "/" + label, func(t *testing.T) any {
				h := heap.New(heap.WithConfig(tenureAt(tenure)))
				return capture(t, h, mk(h), 29)
			}})
		}
	}
	decay := decaySession()
	grid := gcfuzz.CollectorsSized(decay.heapWords)
	data := recordOn(t, decay, grid[0])
	for _, nc := range grid {
		if traced[nc.Name] {
			cells = append(cells,
				cell{"decay/record/" + nc.Name, func(t *testing.T) any { return recordOn(t, decay, nc) }},
				cell{"decay/replay/" + nc.Name, func(t *testing.T) any { return replayOn(t, data, nc) }})
		}
	}
	// Heaps that share a recycler: every copy of these cells, and the lone
	// runs, take their arenas from one Arenas and release into it, so a
	// copy runs on memory another heap, of this cell or another, has
	// written and given up. The short seed on shrunk heaps collects and
	// grows tens of times.
	shrunk := shrunkCollectors(shortDiv)
	for _, name := range names {
		mk := shrunk[name]
		cells = append(cells, cell{name + "/recycled", func(t *testing.T) any {
			h := heap.New(heap.WithArenas(&sharedArenas))
			defer h.Release()
			return captureOps(t, h, mk(h), shortOps, 1000)
		}})
	}
	cfg := experiments.DecayConfig{HalfLife: 256, L: 3, G: 0.25, Steps: 20000}
	return append(cells, cell{"decay/experiment", func(*testing.T) any { return experiments.RunNonPredictive(cfg) }})
}

// sharedArenas is the recycler of heapCells' recycled cells.
var sharedArenas heap.Arenas

// divergence shows where a result and the one it is held to (the lone
// run's, the default row's) first differ, in their printed forms; the
// names label the two lines.
func divergence(got, want any, gotName, wantName string) string {
	g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want)
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	from := max(0, i-40)
	return fmt.Sprintf("diverges from the %s at byte %d of its printed form:\n  %-7s …%.120s\n  %-7s …%.120s",
		wantName, i, gotName, g[from:], wantName, w[from:])
}

// capture plays the seeded workload on h under c, ends on a forced
// collection and snapshots the final state.
func capture(t *testing.T, h *heap.Heap, c heap.Collector, seed int64) heapImage {
	t.Helper()
	return captureOps(t, h, c, ops, seed)
}

// captureOps is capture with a workload of n operations.
func captureOps(t *testing.T, h *heap.Heap, c heap.Collector, n int, seed int64) heapImage {
	t.Helper()
	gctest.RandomOps(t, h, c, n, seed)
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

// checkPacked fails t if a live unblocked space holds TFree filler: the copy
// engine reserves exactly what it copies, in order, so evacuation targets
// are packed from their base to Top. (Blocked spaces keep free runs by
// design.)
func checkPacked(t *testing.T, h *heap.Heap, c heap.Collector) {
	t.Helper()
	live := h.Spaces
	if v, ok := c.(heap.Verifiable); ok && v.VerifySpec().Live != nil {
		live = v.VerifySpec().Live
	}
	for _, s := range live {
		if s.Blocks != nil {
			continue
		}
		heap.WalkSpace(s, func(off int, hdr heap.Word) bool {
			if heap.HeaderType(hdr) == heap.TFree {
				t.Errorf("space %s holds %d words of filler at %d", s.Name, heap.ObjWords(hdr), off)
				return false
			}
			return true
		})
	}
}
