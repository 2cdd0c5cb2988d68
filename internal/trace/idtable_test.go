package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rdgc/internal/core"
	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/gc/marksweep"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// TestIdentityTablesFollowTheHeap records and replays under the heap shapes
// an address-indexed table has to follow and a map never noticed: semispaces
// that Resize mid-run (started far too small for the workload), a step heap
// that adds spaces, and mark/sweep, where nothing moves and a swept address
// is handed out again — each with census off and on. The trace recorded
// under each must be the bytes a comfortable heap records, and replaying it
// under the same shape, deep verifier on, must reproduce a live run's Stats
// and GCStats.
func TestIdentityTablesFollowTheHeap(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(*heap.Heap) heap.Collector
		// stretched reports that the run really changed the heap's shape.
		stretched func(h *heap.Heap, c heap.Collector, spacesAtStart int) bool
	}{
		{"semispace expands", func(h *heap.Heap) heap.Collector {
			return semispace.New(h, 256, semispace.WithExpansion(2))
		}, func(h *heap.Heap, c heap.Collector, _ int) bool {
			return c.(*semispace.Collector).SemiWords() > 256
		}},
		{"nonpredictive grows", func(h *heap.Heap) heap.Collector {
			return core.New(h, 8, 128, core.WithGrowth())
		}, func(h *heap.Heap, _ heap.Collector, spacesAtStart int) bool {
			return len(h.Spaces) > spacesAtStart
		}},
		// k = 4 is the shape whose FullCollect read a forwarded header as a
		// size (core's remembered-set root scan) until the scan learnt to skip
		// entries inside the collected region.
		{"nonpredictive grows from 4 steps", func(h *heap.Heap) heap.Collector {
			return core.New(h, 4, 128, core.WithGrowth())
		}, func(h *heap.Heap, _ heap.Collector, spacesAtStart int) bool {
			return len(h.Spaces) > spacesAtStart
		}},
		{"marksweep reuses addresses", func(h *heap.Heap) heap.Collector {
			return marksweep.New(h, 4096, marksweep.WithExpansion(2))
		}, func(h *heap.Heap, c heap.Collector, _ int) bool {
			// Far more was allocated than the heap holds: addresses were reused.
			return h.Stats.WordsAllocated > 2*uint64(c.(*marksweep.Collector).HeapWords())
		}},
	}
	const seed, steps = 3, 1500
	for _, census := range []bool{false, true} {
		comfortable, _, _ := recordMutator(t, gcfuzz.Collectors()[0].New, census, seed, steps)
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/census=%v", sh.name, census), func(t *testing.T) {
				raw, _, _ := recordMutator(t, sh.mk, census, seed, steps)
				if !bytes.Equal(raw, comfortable) {
					t.Fatalf("recorded %d bytes that differ from the comfortable heap's %d", len(raw), len(comfortable))
				}
				wantStats, wantGC := liveMutator(sh.mk, census, seed, steps)

				rd := openTrace(t, raw)
				var opts []heap.Option
				if census {
					opts = append(opts, heap.WithCensus())
				}
				h := heap.New(opts...)
				c := sh.mk(h)
				spacesAtStart := len(h.Spaces)
				res, err := trace.Replay(rd, h, c, trace.ReplayOptions{Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats != wantStats {
					t.Errorf("replay stats %+v, live %+v", res.Stats, wantStats)
				}
				if got := *c.GCStats(); got != wantGC {
					t.Errorf("replay GCStats %+v, live %+v", got, wantGC)
				}
				if !sh.stretched(h, c, spacesAtStart) {
					t.Errorf("the run never changed the heap's shape; the test is not exercising the table")
				}
			})
		}
	}
}

// TestRecorderNamesUnknownPointers pins the recorder's refusals, text
// included, for the three ways a pointer can fail to resolve in a table:
// an address inside a tabled space that no recorded object occupies, an
// address in a space the table has never seen, and the address an object
// moved away from.
func TestRecorderNamesUnknownPointers(t *testing.T) {
	start := func() (*heap.Heap, *semispace.Collector, *trace.Recorder) {
		h := heap.New()
		c := semispace.New(h, 4096)
		w, err := trace.NewWriter(&bytes.Buffer{}, trace.Header{})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := trace.NewRecorder(h, w)
		if err != nil {
			t.Fatal(err)
		}
		return h, c, rec
	}
	wantErr := func(rec *trace.Recorder, text string) {
		t.Helper()
		err := rec.Finish()
		if !errors.Is(err, trace.ErrInvalid) || !strings.Contains(err.Error(), text) {
			t.Fatalf("got %v, want ErrInvalid containing %q", err, text)
		}
	}

	// An allocation the recorder never saw, used as a value and as a target.
	h, _, rec := start()
	h.Cons(h.Fix(1), h.Null())
	h.SetEventSink(nil)
	hidden := h.Cons(h.Fix(2), h.Null())
	h.SetEventSink(rec)
	h.RefOf(h.Get(hidden))
	wantErr(rec, fmt.Sprintf("pointer %#x does not resolve to a recorded object", uint64(h.Get(hidden))))

	h, _, rec = start()
	h.SetEventSink(nil)
	hidden = h.Cons(h.Fix(2), h.Null())
	h.SetEventSink(rec)
	h.SetCar(hidden, h.Fix(3))
	wantErr(rec, fmt.Sprintf("event target %#x does not resolve to a recorded object", uint64(h.Get(hidden))))

	// A space no recorded object has ever lived in.
	h, _, rec = start()
	h.Cons(h.Fix(1), h.Null())
	stray := heap.PtrWord(h.NewSpace("stray", 16).ID, 4)
	h.RefOf(stray)
	wantErr(rec, fmt.Sprintf("pointer %#x does not resolve to a recorded object", uint64(stray)))

	// The address an object has moved away from.
	h, c, rec := start()
	obj := h.Cons(h.Fix(1), h.Null())
	before := h.Get(obj)
	c.Collect()
	if h.Get(obj) == before {
		t.Fatal("the collection did not move the object")
	}
	h.RefOf(before)
	wantErr(rec, fmt.Sprintf("pointer %#x does not resolve to a recorded object", uint64(before)))
}
