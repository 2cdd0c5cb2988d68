package trace

import (
	"fmt"
	"io"

	"rdgc/internal/heap"
)

// Record runs a workload with recording attached, end to end: it builds a
// fresh heap (census per the flag), installs mk's collector, records every
// event into out, and hands run the wrapped collector to drive. The
// workload's own error is returned after the trace is finalized, so a
// failing workload still leaves a complete, replayable trace.
func Record(out io.Writer, census bool, meta []MetaEntry, mk func(*heap.Heap) heap.Collector, run func(h *heap.Heap, c heap.Collector) error) (heap.Stats, error) {
	var opts []heap.Option
	if census {
		opts = append(opts, heap.WithCensus())
	}
	h := heap.New(opts...)
	c := mk(h)
	w, err := NewWriter(out, Header{Census: census, Meta: meta})
	if err != nil {
		return h.Stats, err
	}
	rec, err := NewRecorder(h, w)
	if err != nil {
		return h.Stats, err
	}
	runErr := run(h, rec.Collector(c))
	if err := rec.Finish(); err != nil {
		return h.Stats, err
	}
	return h.Stats, runErr
}

// Recorder captures a heap's mutator events into a trace. It installs
// itself as the heap's event sink and switches on the heap's identity table
// (heap.TrackIdentity), which the collectors carry with every object they
// move; the recorder only reads it (IDOf) to name objects by allocation
// ordinal, so recorded traces are independent of where — and on how many
// workers — any collector happens to place objects.
//
// Recording never perturbs the simulated run: the heap's words, roots,
// statistics, and collection schedule are identical with and without a
// recorder attached (only host-side wall clock changes), so the GCStats of
// a recorded run equal those of an unrecorded one.
type Recorder struct {
	h        *heap.Heap
	w        *Writer
	err      error // sticky first failure
	finished bool
}

// NewRecorder attaches a recorder to h, streaming events into w. The heap
// must be pristine — no objects, handles, or globals yet — because object
// IDs, root depths, and global indices are positional; and its census mode
// must match the writer's header, because the hidden census word changes
// allocation sizes. The collector may already be installed (collector
// construction allocates no objects).
func NewRecorder(h *heap.Heap, w *Writer) (*Recorder, error) {
	if h.Stats.ObjectsAllocated != 0 || h.LiveRefs() != 0 || h.GlobalRoots() != 0 {
		return nil, fmt.Errorf("%w: recorder needs a pristine heap (have %d objects, %d refs, %d globals)",
			ErrInvalid, h.Stats.ObjectsAllocated, h.LiveRefs(), h.GlobalRoots())
	}
	if h.CensusEnabled() != w.Header().Census {
		return nil, fmt.Errorf("%w: heap census=%v but trace header census=%v",
			ErrInvalid, h.CensusEnabled(), w.Header().Census)
	}
	r := &Recorder{h: h, w: w}
	h.TrackIdentity()
	h.SetEventSink(r)
	return r, nil
}

// Err returns the recorder's first failure, if any.
func (r *Recorder) Err() error { return r.err }

// Finish detaches the recorder and closes the trace with the heap's final
// statistics. It returns the first error from the whole recording.
func (r *Recorder) Finish() error {
	if r.finished {
		return r.err
	}
	r.finished = true
	r.h.SetEventSink(nil)
	if r.err != nil {
		return r.err
	}
	r.err = r.w.Close(Trailer{
		WordsAllocated:   r.h.Stats.WordsAllocated,
		ObjectsAllocated: r.h.Stats.ObjectsAllocated,
		Events:           r.w.Events(),
	})
	return r.err
}

func (r *Recorder) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
	}
}

// value translates a heap word into a trace operand: pointers become
// allocation IDs, everything else travels as immediate bits.
func (r *Recorder) value(w heap.Word) Value {
	if !heap.IsPtr(w) {
		return Imm(w)
	}
	id, _ := r.objID(w) // a failure poisons the recording; callers check
	return Obj(id)
}

// objID resolves a pointer — an operand, or the event's target object.
func (r *Recorder) objID(w heap.Word) (uint64, bool) {
	id, ok := r.h.IDOf(w)
	if !ok {
		r.failf("pointer %#x does not resolve to a recorded object", uint64(w))
	}
	return id, ok
}

// note keeps err as the recording's first failure. Every callback returns
// early once one is recorded, so err is the first when it lands.
func (r *Recorder) note(err error) {
	if err != nil {
		r.err = err
	}
}

// The sink callbacks hand each event straight to its encoder in the
// writer: no Event is built, and the writer makes no second dispatch.

// EvAlloc implements heap.EventSink.
func (r *Recorder) EvAlloc(w heap.Word, t heap.Type, payload int) {
	if r.err != nil {
		return
	}
	id, err := r.w.alloc(t, payload)
	if err != nil {
		r.err = err
		return
	}
	// The writer assigned the allocation its ID, the heap its ordinal.
	if id > heap.MaxIdentity {
		r.failf("allocation ID %d exceeds the identity table's %d", id, uint64(heap.MaxIdentity))
	}
}

// EvStore implements heap.EventSink.
func (r *Recorder) EvStore(w heap.Word, i int, val heap.Word) {
	if r.err != nil {
		return
	}
	id, ok := r.objID(w)
	if !ok {
		return
	}
	v := r.value(val)
	if r.err == nil {
		r.note(r.w.store(id, i, v))
	}
}

// EvFill implements heap.EventSink.
func (r *Recorder) EvFill(w heap.Word, val heap.Word) {
	if r.err != nil {
		return
	}
	id, ok := r.objID(w)
	if !ok {
		return
	}
	v := r.value(val)
	if r.err == nil {
		r.note(r.w.fill(id, v))
	}
}

// EvRaw implements heap.EventSink.
func (r *Recorder) EvRaw(w heap.Word, i int, bits uint64) {
	if r.err != nil {
		return
	}
	if id, ok := r.objID(w); ok {
		r.note(r.w.raw(id, i, bits))
	}
}

// EvIntern implements heap.EventSink.
func (r *Recorder) EvIntern(w heap.Word, name string) {
	if r.err != nil {
		return
	}
	if id, ok := r.objID(w); ok {
		r.note(r.w.intern(id, name))
	}
}

// EvRootPush implements heap.EventSink.
func (r *Recorder) EvRootPush(w heap.Word) {
	r.root(KindPush, w)
}

// EvRootPopTo implements heap.EventSink.
func (r *Recorder) EvRootPopTo(depth int) {
	if r.err == nil {
		r.note(r.w.popTo(depth))
	}
}

// EvRootSet implements heap.EventSink.
func (r *Recorder) EvRootSet(ref heap.Ref, w heap.Word) {
	if r.err != nil {
		return
	}
	v := r.value(w)
	if r.err == nil {
		r.note(r.w.set(int32(ref), v))
	}
}

// EvGlobal implements heap.EventSink.
func (r *Recorder) EvGlobal(w heap.Word) {
	r.root(KindGlobal, w)
}

// root records a handle push or a new global root.
func (r *Recorder) root(k Kind, w heap.Word) {
	if r.err != nil {
		return
	}
	v := r.value(w)
	if r.err == nil {
		r.note(r.w.root(k, v))
	}
}

// collect records a collection boundary.
func (r *Recorder) collect(full bool) {
	if r.err == nil {
		r.note(r.w.collect(full))
	}
}

// fullCollector is the optional whole-heap collection the non-predictive
// collectors expose (same contract as gcfuzz's).
type fullCollector interface{ FullCollect() }

// RecordingCollector wraps a collector so that mutator-requested
// collection boundaries land in the trace. It records the *intent* —
// collect versus full-collect — not what the wrapped collector did with
// it, so a replay under a different collector applies its own policy
// exactly as a live run would have.
type RecordingCollector struct {
	heap.Collector
	r *Recorder
}

// Collector wraps c for recording. Drive the workload through the wrapper;
// allocations still flow through the heap's installed allocator.
func (r *Recorder) Collector(c heap.Collector) *RecordingCollector {
	return &RecordingCollector{Collector: c, r: r}
}

// Collect records the boundary, then collects.
func (rc *RecordingCollector) Collect() {
	rc.r.collect(false)
	rc.Collector.Collect()
}

// FullCollect records a full-collection boundary, then performs one where
// the wrapped collector supports it, falling back to Collect — mirroring
// how replay treats a full boundary under each collector.
func (rc *RecordingCollector) FullCollect() {
	rc.r.collect(true)
	if fc, ok := rc.Collector.(fullCollector); ok {
		fc.FullCollect()
	} else {
		rc.Collector.Collect()
	}
}
