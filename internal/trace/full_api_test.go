package trace_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// richWorkload exercises every event kind the public heap API can produce —
// including symbols, flonums, and bytevectors, which the gctest mutator
// never touches — with enough volume to force collections.
func richWorkload(h *heap.Heap, c heap.Collector) error {
	root := h.GlobalWord(heap.NullWord)
	for i := 0; i < 400; i++ {
		s := h.Scope()
		v := h.MakeVector(4, h.Fix(int64(i)))
		h.VectorSet(v, 0, h.Intern("alpha"))
		h.VectorSet(v, 1, h.Intern("beta-"+string(rune('a'+i%3))))
		h.VectorSet(v, 2, h.Flonum(float64(i)*1.5))
		h.VectorSet(v, 3, h.Box(h.Bytevector(3)))
		pair := h.Cons(v, h.Dup(root))
		h.SetCdr(pair, h.Null())
		h.Set(root, h.Get(pair))
		s.Close()
		if i%101 == 100 {
			c.Collect()
		}
		if i%173 == 172 {
			if fc, ok := c.(fullCollector); ok {
				fc.FullCollect()
			} else {
				c.Collect()
			}
		}
	}
	c.Collect()
	return nil
}

// TestRecordHelperFullAPI drives the Record convenience helper over the
// full-API workload and replays the result under every collector, census
// on and off. This is where symbol interning and raw payloads earn their
// replay coverage.
func TestRecordHelperFullAPI(t *testing.T) {
	for _, census := range []bool{false, true} {
		var opts []heap.Option
		if census {
			opts = append(opts, heap.WithCensus())
		}
		var buf bytes.Buffer
		meta := []trace.MetaEntry{{Key: "workload", Value: "full-api"}}
		stats, err := trace.Record(&buf, meta, gcfuzz.Collectors()[0].New, richWorkload, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ObjectsAllocated == 0 {
			t.Fatal("workload allocated nothing")
		}
		raw := buf.Bytes()

		for _, nc := range gcfuzz.Collectors() {
			rd, err := trace.NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			hdr := rd.Header()
			if wl, ok := hdr.Lookup("workload"); !ok || wl != "full-api" {
				t.Fatalf("metadata lost: %+v", hdr.Meta)
			}
			if _, ok := hdr.Lookup("no-such-key"); ok {
				t.Fatal("Lookup invented a meta entry")
			}
			h := heap.New(opts...)
			c := nc.New(h)
			res, err := trace.Replay(rd, h, c, trace.ReplayOptions{Verify: true})
			if err != nil {
				t.Fatalf("census=%v replay under %s: %v", census, nc.Name, err)
			}
			if res.Stats != stats {
				t.Fatalf("census=%v %s: stats %+v, recorded %+v", census, nc.Name, res.Stats, stats)
			}
			if got := h.SymbolName(h.Intern("alpha")); got != "alpha" {
				t.Fatalf("replayed symbol table broken: %q", got)
			}
			if rd.Events() != res.Events {
				t.Fatalf("reader counted %d events, replay applied %d", rd.Events(), res.Events)
			}
		}
	}
}

// TestStatAndStrings runs the aggregate view and the debug renderers over
// the full-API trace, pinning the pieces cmd/gctrace stat and cat rely on.
func TestStatAndStrings(t *testing.T) {
	var buf bytes.Buffer
	_, err := trace.Record(&buf, []trace.MetaEntry{{Key: "workload", Value: "full-api"}},
		gcfuzz.Collectors()[0].New, richWorkload, heap.WithCensus())
	if err != nil {
		t.Fatal(err)
	}

	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ev trace.Event
	seen := map[trace.Kind]bool{}
	for {
		if err := rd.Next(&ev); err != nil {
			break
		}
		seen[ev.Kind] = true
		if ev.String() == "" || ev.Kind.String() == "" {
			t.Fatalf("empty rendering for %v", ev.Kind)
		}
	}
	for k := trace.KindAlloc; k <= trace.KindCollect; k++ {
		if !seen[k] {
			t.Errorf("workload never produced %v events", k)
		}
	}

	rd2, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.Stat(rd2)
	if err != nil {
		t.Fatal(err)
	}
	if s.ByType[heap.TSymbol].Count == 0 || s.ByType[heap.TFlonum].Count == 0 {
		t.Fatalf("type profile missed raw-payload types: %+v", s.ByType)
	}
	var allocs uint64
	for _, ts := range s.ByType {
		allocs += ts.Count
	}
	if allocs != s.Trailer.ObjectsAllocated {
		t.Fatalf("type profile counts %d objects, trailer says %d", allocs, s.Trailer.ObjectsAllocated)
	}
	text := s.Format()
	for _, want := range []string{"workload = full-api", "symbol", "flonum", "lifetime upper bound", "collections requested"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q:\n%s", want, text)
		}
	}
}

// TestRecorderErrorPaths pins the recorder's failure contract: non-pristine
// heaps and census mismatches are rejected up front; events referencing
// objects the recorder never saw poison the recording with ErrInvalid.
func TestRecorderErrorPaths(t *testing.T) {
	dirty := heap.New()
	c := gcfuzz.Collectors()[0].New(dirty)
	_ = c
	dirty.Cons(dirty.Fix(1), dirty.Null())
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.NewRecorder(dirty, w); !errors.Is(err, trace.ErrInvalid) {
		t.Fatalf("non-pristine heap: got %v, want ErrInvalid", err)
	}

	censusHeap := heap.New(heap.WithCensus())
	gcfuzz.Collectors()[0].New(censusHeap)
	w2, _ := trace.NewWriter(&buf, trace.Header{Census: false})
	if _, err := trace.NewRecorder(censusHeap, w2); !errors.Is(err, trace.ErrInvalid) {
		t.Fatalf("census mismatch: got %v, want ErrInvalid", err)
	}

	// Hide an allocation from the recorder, then reference it: the recorder
	// must refuse to encode a pointer it cannot name.
	h := heap.New()
	hc := gcfuzz.Collectors()[0].New(h)
	var buf3 bytes.Buffer
	w3, err := trace.NewWriter(&buf3, trace.Header{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(h, w3)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := rec.Collector(hc)
	h.SetEventSink(nil)
	hidden := h.Cons(h.Fix(1), h.Null())
	h.SetEventSink(rec)
	if rec.Err() != nil {
		t.Fatalf("premature recorder error: %v", rec.Err())
	}
	h.Cons(hidden, h.Null())
	first := rec.Err()
	if !errors.Is(first, trace.ErrInvalid) {
		t.Fatalf("unrecorded pointer: got %v, want ErrInvalid", first)
	}
	// Every subsequent event kind must be a no-op on a poisoned recorder:
	// the first error stays the reported one.
	s := h.Scope()
	h.VectorSet(h.MakeVector(2, h.Fix(0)), 0, h.Intern("late"))
	h.SetBox(h.Box(h.Flonum(1.0)), h.Fix(2))
	h.Set(h.GlobalWord(heap.NullWord), heap.NullWord)
	s.Close()
	wrapped.Collect()
	if rec.Err() != first {
		t.Fatalf("poisoned recorder error changed: %v -> %v", first, rec.Err())
	}
	if err := rec.Finish(); !errors.Is(err, trace.ErrInvalid) {
		t.Fatalf("Finish after poison: got %v, want ErrInvalid", err)
	}
	if err := rec.Finish(); !errors.Is(err, trace.ErrInvalid) {
		t.Fatalf("second Finish: got %v, want ErrInvalid", err)
	}
}

// failWriter accepts budget bytes, then fails every write.
type failWriter struct{ budget int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.budget {
		n := f.budget
		f.budget = 0
		return n, errors.New("disk full")
	}
	f.budget -= len(p)
	return len(p), nil
}

// TestWriterIOErrors pins how sink failures surface: at NewWriter when the
// preamble cannot be written, and from Append/Close when a block flush
// fails mid-stream.
func TestWriterIOErrors(t *testing.T) {
	if _, err := trace.NewWriter(&failWriter{budget: 0}, trace.Header{}); err == nil {
		t.Fatal("NewWriter succeeded against a dead sink")
	}

	// Enough budget for the preamble, none for the first event block.
	w, err := trace.NewWriter(&failWriter{budget: 1 << 10}, trace.Header{})
	if err != nil {
		t.Fatal(err)
	}
	ev := trace.Event{Kind: trace.KindAlloc, Type: heap.TPair, Size: 2}
	var appendErr error
	for i := 0; i < 100000 && appendErr == nil; i++ {
		ev.Obj = 0
		appendErr = w.Append(&ev)
	}
	closeErr := w.Close(trace.Trailer{})
	if appendErr == nil && closeErr == nil {
		t.Fatal("no error surfaced from a failing sink")
	}
}

// TestStringRenderers pins the debug renderings cmd/gctrace cat depends on,
// including the unknown-kind fallbacks.
func TestStringRenderers(t *testing.T) {
	if got := trace.Kind(99).String(); got != "Kind(99)" {
		t.Fatalf("unknown kind: %q", got)
	}
	bogus := trace.Event{Kind: trace.Kind(99)}
	if got := bogus.String(); got != "event(99)" {
		t.Fatalf("unknown event: %q", got)
	}
	full := trace.Event{Kind: trace.KindCollect, Full: true}
	if got := full.String(); got != "collect full" {
		t.Fatalf("full collect: %q", got)
	}
	if got := trace.Obj(7).String(); got != "#7" {
		t.Fatalf("object operand: %q", got)
	}
}

// TestRecordRunError: a failing workload still finalizes a complete,
// replayable trace, and the workload's error is what Record returns.
func TestRecordRunError(t *testing.T) {
	boom := errors.New("workload exploded")
	var buf bytes.Buffer
	_, err := trace.Record(&buf, nil, gcfuzz.Collectors()[0].New,
		func(h *heap.Heap, c heap.Collector) error {
			h.Cons(h.Fix(1), h.Null())
			return boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the workload error", err)
	}
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace from failing run unreadable: %v", err)
	}
	if _, err := rd.Drain(); err != nil {
		t.Fatalf("trace from failing run incomplete: %v", err)
	}

	// A dead sink fails Record before the workload even runs.
	if _, err := trace.Record(&failWriter{budget: 0}, nil, gcfuzz.Collectors()[0].New,
		func(h *heap.Heap, c heap.Collector) error { return nil }); err == nil {
		t.Fatal("Record succeeded against a dead sink")
	}
}

// TestReplayerPristineAndTruncated: the replayer refuses dirty heaps, and a
// truncated trace surfaces ErrTruncated through Replay.
func TestReplayerPristineAndTruncated(t *testing.T) {
	dirty := heap.New()
	c := gcfuzz.Collectors()[0].New(dirty)
	dirty.Cons(dirty.Fix(1), dirty.Null())
	if _, err := trace.NewReplayer(dirty, c); !errors.Is(err, trace.ErrInvalid) {
		t.Fatalf("dirty heap: got %v, want ErrInvalid", err)
	}

	var buf bytes.Buffer
	if _, err := trace.Record(&buf, nil, gcfuzz.Collectors()[0].New, richWorkload); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-40]
	rd, err := trace.NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	hc := gcfuzz.Collectors()[0].New(h)
	if _, err := trace.Replay(rd, h, hc, trace.ReplayOptions{}); !errors.Is(err, trace.ErrTruncated) {
		t.Fatalf("truncated trace: got %v, want ErrTruncated", err)
	}
}

// TestReplayErrorPaths pins replay's failure contract: census mismatch,
// heap-impossible events (panics converted to ErrInvalid), and trailer
// drift.
func TestReplayErrorPaths(t *testing.T) {
	// A codec-valid trace whose store slot is outside the object's payload.
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{})
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Event{Kind: trace.KindAlloc, Type: heap.TPair, Size: 2}
	if err := w.Append(&a); err != nil {
		t.Fatal(err)
	}
	bad := trace.Event{Kind: trace.KindStore, Obj: 0, Slot: 9, Val: trace.Imm(heap.FixnumWord(1))}
	if err := w.Append(&bad); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(trace.Trailer{WordsAllocated: 3, ObjectsAllocated: 1, Events: 2}); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	c := gcfuzz.Collectors()[0].New(h)
	if _, err := trace.Replay(rd, h, c, trace.ReplayOptions{}); !errors.Is(err, trace.ErrInvalid) {
		t.Fatalf("out-of-bounds store: got %v, want ErrInvalid", err)
	}

	// Census mismatch between trace and heap.
	var buf2 bytes.Buffer
	w2, _ := trace.NewWriter(&buf2, trace.Header{Census: true})
	w2.Close(trace.Trailer{})
	rd2, err := trace.NewReader(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h2 := heap.New()
	c2 := gcfuzz.Collectors()[0].New(h2)
	if _, err := trace.Replay(rd2, h2, c2, trace.ReplayOptions{}); !errors.Is(err, trace.ErrInvalid) {
		t.Fatalf("census mismatch: got %v, want ErrInvalid", err)
	}

	// A trailer that lies about the words allocated: the codec accepts it
	// (only the event count is writer-validated), replay detects the drift.
	var buf3 bytes.Buffer
	w3, _ := trace.NewWriter(&buf3, trace.Header{})
	a = trace.Event{Kind: trace.KindAlloc, Type: heap.TPair, Size: 2}
	if err := w3.Append(&a); err != nil {
		t.Fatal(err)
	}
	if err := w3.Close(trace.Trailer{WordsAllocated: 999, ObjectsAllocated: 1, Events: 1}); err != nil {
		t.Fatal(err)
	}
	rd3, err := trace.NewReader(bytes.NewReader(buf3.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h3 := heap.New()
	c3 := gcfuzz.Collectors()[0].New(h3)
	if _, err := trace.Replay(rd3, h3, c3, trace.ReplayOptions{}); !errors.Is(err, trace.ErrDrift) {
		t.Fatalf("lying trailer: got %v, want ErrDrift", err)
	}
}
