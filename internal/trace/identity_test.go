package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
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
// the heap's address-indexed identity table has to follow: semispaces
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
// included, for the ways a pointer can fail to name a recorded object: an
// allocation the recorder was not attached for, named as a value or as a
// target (never named, it leaves the trailer's object count one ahead of the
// trace's allocation events, which replay reports as drift), an address in a
// space no object has lived in, and the address an object moved away from.
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

	// An allocation the recorder never saw has an ordinal of the heap's but
	// no allocation event: used as a value or as a target, it is a reference
	// to an object the trace has not allocated.
	h, _, rec := start()
	h.Cons(h.Fix(1), h.Null())
	h.SetEventSink(nil)
	hidden := h.Cons(h.Fix(2), h.Null())
	h.SetEventSink(rec)
	h.RefOf(h.Get(hidden))
	wantErr(rec, "reference to unallocated object #1")

	h, _, rec = start()
	h.SetEventSink(nil)
	hidden = h.Cons(h.Fix(2), h.Null())
	h.SetEventSink(rec)
	h.SetCar(hidden, h.Fix(3))
	wantErr(rec, "reference to unallocated object #0")

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

// TestRecorderBesideTheAgeOracle: gcfuzz.Run attaches the age oracle to a
// tenuring collector and, through wrap, this package's recorder; both read
// the one identity table the heap keeps. Every tenuring collector, tenured,
// never-promoting, adaptive and tenured on two workers, runs the corpus
// program clean — oracle, verifier and shadow model — while the recorder
// writes the bytes the zero Config writes.
func TestRecorderBesideTheAgeOracle(t *testing.T) {
	data, err := os.ReadFile("../gc/gcfuzz/testdata/fuzz/FuzzCollectors/seed-tenure-churn")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := gcfuzz.UnmarshalCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	record := func(nc gcfuzz.NamedCollector, cfg heap.Config) []byte {
		t.Helper()
		var buf bytes.Buffer
		var rec *trace.Recorder
		_, err := gcfuzz.Run(prog, nc.New, false, cfg, func(h *heap.Heap, c heap.Collector) heap.Collector {
			w, err := trace.NewWriter(&buf, trace.Header{})
			if err != nil {
				t.Fatal(err)
			}
			if rec, err = trace.NewRecorder(h, w); err != nil {
				t.Fatal(err)
			}
			return rec.Collector(c)
		})
		if err != nil {
			t.Fatalf("%s under %+v: %v", nc.Name, cfg, err)
		}
		if err := rec.Finish(); err != nil {
			t.Fatalf("%s under %+v: %v", nc.Name, cfg, err)
		}
		return buf.Bytes()
	}
	want := record(gcfuzz.Collectors()[0], heap.Config{})
	for _, nc := range gcfuzz.Collectors() {
		if _, ok := nc.New(heap.New()).(heap.Tenurer); !ok {
			continue
		}
		for _, cfg := range []heap.Config{{Tenure: 3}, {Tenure: heap.TenureNever}, {Adaptive: true}, {Tenure: 3, Workers: 2}} {
			if got := record(nc, cfg); !bytes.Equal(got, want) {
				t.Errorf("%s under %+v recorded %d bytes that differ from the zero Config's %d", nc.Name, cfg, len(got), len(want))
			}
		}
	}
}
