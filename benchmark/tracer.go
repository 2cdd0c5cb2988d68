package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"time"

	"rdgc/internal/heap"
)

// The tracer measures the program from outside: shims installed through the
// heap's public setters (SetAllocator, SetBarrier, SetEventSink, SetAfterGC)
// and spans around the public calls the benchmark itself makes (Collect,
// Reader.Next, Replayer.Apply, serve.Run). Nothing inside the program is
// touched, so a layer that has no public boundary (a serve shard's heap) is
// visible only as its parent span.
//
// Hot spans (every allocation, barrier call, sink event, trace event) are
// aggregated per name as count, total and a log2 histogram. Coarse spans
// (pass set-up, cell, every collecting allocation, every explicit Collect)
// are kept individually with parent ids and written to out/spans.json.

// agg aggregates the spans of one name.
type agg struct {
	N     uint64     `json:"count"`
	Total int64      `json:"total_ns"`
	Hist  [40]uint32 `json:"log2_ns_hist"` // Hist[i] counts spans with bit length i
}

func (a *agg) add(ns int64) {
	a.N++
	a.Total += ns
	b := bits.Len64(uint64(ns))
	if b >= len(a.Hist) {
		b = len(a.Hist) - 1
	}
	a.Hist[b]++
}

func (a *agg) merge(o *agg) {
	a.N += o.N
	a.Total += o.Total
	for i := range a.Hist {
		a.Hist[i] += o.Hist[i]
	}
}

func (a *agg) seconds() float64 { return float64(a.Total) / 1e9 }

// span is one coarse span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 at the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the individually kept spans; past it spans still count in
// their aggregates but are dropped from the file (Dropped says how many).
const maxSpans = 200000

// spanKind names an aggregated span.
type spanKind int

const (
	kCell       spanKind = iota // the cell's timed section
	kAllocFast                  // AllocRaw calls during which no collection finished
	kAllocGC                    // AllocRaw calls that collected
	kCollect                    // explicit Collect calls
	kBarrier                    // the collector's RecordWrite
	kSink                       // event-sink callbacks (the trace recorder)
	kNext                       // Reader.Next
	kApplyAlloc                 // Replayer.Apply by event kind ...
	kApplyStore
	kApplyRoot
	kApplyCollect
	nKinds
)

var kindNames = [nKinds]string{
	"cell", "heap.alloc.fast", "heap.alloc.collect", "gc.explicit_collect", "heap.barrier",
	"heap.sink", "trace.next", "trace.apply.alloc", "trace.apply.store", "trace.apply.root",
	"trace.apply.collect",
}

// cellTrace accumulates one cell's spans over every traced pass.
type cellTrace struct {
	tr      *tracer
	aggs    [nKinds]agg
	gcFired bool  // set by the AfterGC hook: the allocation in flight collected
	nested  int64 // sink time spent inside the allocation in flight
}

func (ct *cellTrace) total(k spanKind) int64 { return ct.aggs[k].Total }

func (ct *cellTrace) merge(o *cellTrace) {
	for k := range ct.aggs {
		ct.aggs[k].merge(&o.aggs[k])
	}
}

// budget is where one cell's traced span went, in nanoseconds summed over
// the traced passes. Each part has the shims' own clock reads taken out (a
// span holds about one read, and each shim call costs its caller about one
// more), so the parts estimate what the layer costs untraced and their sum
// what the cell would take: estimate() is checked against the untraced wall.
type budget struct {
	span     float64 // the traced span, as measured
	mutator  float64 // what no child span covers: generator or program, handles, root stores
	alloc    float64 // AllocRaw calls that did not collect
	pause    float64 // AllocRaw calls that collected, plus explicit collections
	explicit float64 // the explicit collections alone
	barrier  float64
	sink     float64
	decode   float64 // Reader.Next
	apply    float64 // Replayer.Apply minus the heap-level shims inside it
	// applyKind is Replayer.Apply by event kind (alloc, store, root,
	// collect), heap-level shims included.
	applyKind [4]float64
	// residual is the share by which the parts as measured (before the clock
	// correction) miss the span. They tile it by construction, so anything
	// above zero is a nested span counted twice.
	residual float64
}

func (b *budget) add(o budget) {
	b.span += o.span
	b.mutator += o.mutator
	b.alloc += o.alloc
	b.pause += o.pause
	b.explicit += o.explicit
	b.barrier += o.barrier
	b.sink += o.sink
	b.decode += o.decode
	b.apply += o.apply
	for i := range b.applyKind {
		b.applyKind[i] += o.applyKind[i]
	}
}

// estimate is the sum of the corrected parts: the cell's wall without shims.
func (b budget) estimate() float64 {
	return b.mutator + b.alloc + b.pause + b.barrier + b.sink + b.decode + b.apply
}

// budget splits the cell's span. clock is the cost of one clock read in ns.
func (ct *cellTrace) budget(clock float64) budget {
	raw := func(k spanKind) float64 { return float64(ct.aggs[k].Total) }
	calls := func(k spanKind) float64 { return float64(ct.aggs[k].N) }
	own := func(k spanKind) float64 { return math.Max(0, raw(k)-calls(k)*clock) }

	b := budget{
		span:     raw(kCell),
		alloc:    own(kAllocFast),
		pause:    own(kAllocGC) + own(kCollect),
		explicit: own(kCollect),
		barrier:  own(kBarrier),
		sink:     own(kSink),
		decode:   own(kNext),
	}
	var shimRaw, shimCalls float64
	for k := kAllocFast; k <= kSink; k++ {
		shimRaw += raw(k)
		shimCalls += calls(k)
	}
	// The heap-level shims that fire inside each kind of Apply.
	nested := [4][]spanKind{{kAllocFast, kAllocGC}, {kBarrier}, nil, {kCollect}}
	var applyRaw float64
	for i := range b.applyKind {
		k := kApplyAlloc + spanKind(i)
		applyRaw += raw(k)
		inner := 0.0
		for _, n := range nested[i] {
			inner += calls(n)
		}
		b.applyKind[i] = math.Max(0, raw(k)-(calls(k)+2*inner)*clock)
	}

	var mutatorRaw, applySelfRaw float64
	if applyRaw > 0 { // a replay cell: Next and Apply tile the loop, the shims sit inside Apply
		mutatorRaw = b.span - raw(kNext) - applyRaw
		applySelfRaw = applyRaw - shimRaw
		b.mutator = math.Max(0, mutatorRaw)
		for _, v := range b.applyKind {
			b.apply += v
		}
		b.apply = math.Max(0, b.apply-b.alloc-b.pause-b.barrier-b.sink)
	} else {
		mutatorRaw = b.span - shimRaw
		b.mutator = math.Max(0, mutatorRaw-shimCalls*clock)
	}
	if b.span > 0 {
		sum := math.Abs(mutatorRaw) + math.Abs(applySelfRaw) + shimRaw + raw(kNext)
		b.residual = (sum - b.span) / b.span
	}
	return b
}

// MarshalJSON writes the aggregates by span name.
func (ct *cellTrace) MarshalJSON() ([]byte, error) {
	m := map[string]*agg{}
	for k := range ct.aggs {
		if ct.aggs[k].N > 0 {
			m[kindNames[k]] = &ct.aggs[k]
		}
	}
	return json.Marshal(m)
}

type tracer struct {
	base    time.Time
	clock   float64 // nanoseconds one now() costs, measured at start
	spans   []span
	dropped int
	nextID  int32
	stack   []int32 // open coarse spans
	cells   map[string]*cellTrace
	cur     *cellTrace
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), cells: map[string]*cellTrace{}}
	const reads = 200000
	t.clock = nsPerUnit(5, reads, func() {
		for i := 0; i < reads; i++ {
			kernelSink += uint64(t.now())
		}
	})
	return t
}

// now is nanoseconds since the tracer started: one monotonic clock read.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) parent() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// keep records a coarse span under the innermost open one and returns its id.
func (t *tracer) keep(name string, start, end int64) int32 {
	id := t.nextID
	t.nextID++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Start: start, End: end})
	} else {
		t.dropped++
	}
	return id
}

// begin opens a coarse span; end closes the innermost one.
func (t *tracer) begin(name string) {
	t.stack = append(t.stack, t.keep(name, t.now(), -1))
}

func (t *tracer) end() {
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if int(id) < len(t.spans) {
		t.spans[id].End = t.now()
	}
}

// leaf records a finished coarse span.
func (t *tracer) leaf(name string, start, end int64) { t.keep(name, start, end) }

func (t *tracer) beginCell(c *cell) {
	ct := t.cells[c.name]
	if ct == nil {
		ct = &cellTrace{tr: t}
		t.cells[c.name] = ct
	}
	t.cur = ct
	t.begin("cell " + c.name)
}

func (t *tracer) endCell() {
	t.end()
	t.cur = nil
}

// timed runs the cell's timed section under a span and returns its wall.
func (t *tracer) timed(f func()) time.Duration {
	ct := t.cur
	t.begin("timed")
	t0 := t.now()
	f()
	d := t.now() - t0
	t.end()
	ct.aggs[kCell].add(d)
	return time.Duration(d)
}

// instrument installs the allocation shim, the after-collection hook and,
// for a collector that is its own write barrier, the barrier shim. It must
// run after the collector's constructor, which installs the originals.
func (t *tracer) instrument(h *heap.Heap, c heap.Collector, key string) {
	ct := t.cur
	h.SetAllocator(&allocShim{inner: c, ct: ct})
	if barriered(key) {
		h.SetBarrier(&barrierShim{inner: c.(heap.Barrier), ct: ct})
	}
	h.SetAfterGC(func() { ct.gcFired = true })
}

type allocShim struct {
	inner heap.Allocator
	ct    *cellTrace
}

func (s *allocShim) AllocRaw(t heap.Type, payload int) heap.Word {
	ct := s.ct
	ct.gcFired = false
	ct.nested = 0
	t0 := ct.tr.now()
	w := s.inner.AllocRaw(t, payload)
	t1 := ct.tr.now()
	d := t1 - t0 - ct.nested
	if ct.gcFired {
		ct.aggs[kAllocGC].add(d)
		ct.tr.leaf("heap.alloc.collect", t0, t1)
	} else {
		ct.aggs[kAllocFast].add(d)
	}
	return w
}

type barrierShim struct {
	inner heap.Barrier
	ct    *cellTrace
}

func (s *barrierShim) RecordWrite(obj, val heap.Word) {
	t0 := s.ct.tr.now()
	s.inner.RecordWrite(obj, val)
	s.ct.aggs[kBarrier].add(s.ct.tr.now() - t0)
}

// collect is an explicit Collect under a span.
func (t *tracer) collect(c heap.Collector) {
	ct := t.cur
	t0 := t.now()
	c.Collect()
	t1 := t.now()
	ct.aggs[kCollect].add(t1 - t0)
	t.leaf("gc.explicit_collect", t0, t1)
}

// collectShim gives the trace replayer a collector whose mutator-requested
// collections are spans. Allocation does not pass through it: the replayer
// allocates through the heap, where the allocation shim sits.
type collectShim struct {
	heap.Collector
	tr *tracer
}

func (s *collectShim) Collect() { s.tr.collect(s.Collector) }

// FullCollect mirrors the replayer's own fallback for collectors without a
// whole-heap collection.
func (s *collectShim) FullCollect() {
	fc, ok := s.Collector.(interface{ FullCollect() })
	if !ok {
		s.tr.collect(s.Collector)
		return
	}
	ct := s.tr.cur
	t0 := s.tr.now()
	fc.FullCollect()
	t1 := s.tr.now()
	ct.aggs[kCollect].add(t1 - t0)
	s.tr.leaf("gc.explicit_collect", t0, t1)
}

// sinkShim times every event the heap hands its sink (the trace recorder).
// An allocation's event fires inside AllocRaw, so its time is also noted as
// nested for the allocation shim to subtract.
type sinkShim struct {
	inner heap.EventSink
	ct    *cellTrace
}

func (s *sinkShim) note(t0 int64) {
	d := s.ct.tr.now() - t0
	s.ct.aggs[kSink].add(d)
	s.ct.nested += d
}

func (s *sinkShim) EvAlloc(w heap.Word, t heap.Type, n int) {
	t0 := s.ct.tr.now()
	s.inner.EvAlloc(w, t, n)
	s.note(t0)
}
func (s *sinkShim) EvStore(w heap.Word, i int, val heap.Word) {
	t0 := s.ct.tr.now()
	s.inner.EvStore(w, i, val)
	s.note(t0)
}
func (s *sinkShim) EvFill(w heap.Word, val heap.Word) {
	t0 := s.ct.tr.now()
	s.inner.EvFill(w, val)
	s.note(t0)
}
func (s *sinkShim) EvRaw(w heap.Word, i int, b uint64) {
	t0 := s.ct.tr.now()
	s.inner.EvRaw(w, i, b)
	s.note(t0)
}
func (s *sinkShim) EvIntern(w heap.Word, name string) {
	t0 := s.ct.tr.now()
	s.inner.EvIntern(w, name)
	s.note(t0)
}
func (s *sinkShim) EvRootPush(w heap.Word) {
	t0 := s.ct.tr.now()
	s.inner.EvRootPush(w)
	s.note(t0)
}
func (s *sinkShim) EvRootPopTo(depth int) {
	t0 := s.ct.tr.now()
	s.inner.EvRootPopTo(depth)
	s.note(t0)
}
func (s *sinkShim) EvRootSet(r heap.Ref, w heap.Word) {
	t0 := s.ct.tr.now()
	s.inner.EvRootSet(r, w)
	s.note(t0)
}
func (s *sinkShim) EvGlobal(w heap.Word) {
	t0 := s.ct.tr.now()
	s.inner.EvGlobal(w)
	s.note(t0)
}

// spansFile is what out/spans.json holds.
type spansFile struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Spans    []span                `json:"spans"`
	Dropped  int                   `json:"dropped_spans"`
	Cells    map[string]*cellTrace `json:"aggregates"`
}

// write stores the kept spans and per-cell aggregates under dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spansFile{workload, seed, t.spans, t.dropped, t.cells})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644)
}
