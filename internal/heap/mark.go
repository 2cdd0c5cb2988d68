package heap

import "math"

// Marker is a generic tracing engine that sets side-bitmap mark bits
// (block.go) without moving anything — headers are never written during a
// mark. The mark/sweep collectors and the lifetime census all use it; they
// differ only in the region bound and in what they do with the marks
// afterwards.
//
// A Marker is built once per collector and re-armed with Begin before each
// collection: the mark stack keeps its capacity across collections, so
// steady-state collections allocate nothing.
//
// The region is declared as a set of spaces (SetRegion; the whole heap until
// then), so the per-slot bound check is a bit test rather than an indirect
// call.
type Marker struct {
	H *Heap

	// region is the trace bound: a bitset of SpaceIDs, consulted only when
	// bounded is true. Pointers outside it are treated as leaves.
	region  SpaceSet
	bounded bool

	// spaces caches H.Spaces across a run, saving a pointer chase per
	// marked object. Begin refreshes it; the engines also refresh it lazily
	// when a pointer names a space beyond the cache (spaces created since
	// the last Begin).
	spaces []*Space

	stack []Word
	// markSlot is the stored slot-visitor closure, created once so passing
	// it to VisitRoots/ScanObject never allocates.
	markSlot func(slot *Word)

	// WordsMarked is the footprint of the objects scanned since Begin,
	// counted at pop, where the scan loads the header anyway; after a full
	// drain it is the footprint of every object marked. ObjectsMarked is
	// counted at push, so it is current mid-drain (Shade reads it there).
	WordsMarked   uint64
	ObjectsMarked int
}

// NewMarker prepares a whole-heap marker; collectors bound the trace with
// SetRegion. inRegion must be nil: the parameter is what remains of a
// removed predicate bound, kept only until every caller drops the argument.
func NewMarker(h *Heap, inRegion func(w Word) bool) *Marker {
	if inRegion != nil {
		panic("heap: NewMarker no longer takes a region predicate; bound the trace with SetRegion")
	}
	m := &Marker{H: h, spaces: h.Spaces}
	m.markSlot = func(slot *Word) { m.MarkWord(*slot) }
	return m
}

// SetRegion bounds the trace to exactly the given spaces. The set's backing
// array is reused, so re-arming between collections allocates nothing.
func (m *Marker) SetRegion(spaces ...*Space) {
	m.bounded = true
	m.region.Clear()
	for _, s := range spaces {
		m.region.Add(s.ID)
	}
}

// Region exposes the bitset bound for incremental population (e.g. the
// non-predictive mark/sweep adding steps j..k-1 one by one). Callers must
// have armed the bound with SetRegion first.
func (m *Marker) Region() *SpaceSet { return &m.region }

// Slot returns the marker's stored slot-visitor function, for root
// iterators that need a callback without allocating a fresh closure.
func (m *Marker) Slot() func(slot *Word) { return m.markSlot }

// Begin re-arms the marker for another collection: the work counters reset,
// the space cache refreshes, and the mark stack empties while retaining its
// capacity.
func (m *Marker) Begin() {
	m.stack = m.stack[:0]
	m.spaces = m.H.Spaces
	m.WordsMarked = 0
	m.ObjectsMarked = 0
}

// MarkWord marks the object w points to (if any) and queues it for scanning.
func (m *Marker) MarkWord(w Word) {
	if !IsPtr(w) || (m.bounded && !m.region.HasPtr(w)) {
		return
	}
	m.mark(w)
}

// mark sets the bitmap mark bit of the (in-bound, pointer) word's object
// and pushes it, if it was not already marked.
func (m *Marker) mark(w Word) {
	id := PtrSpace(w)
	if int(id) >= len(m.spaces) {
		// A space created since the last Begin; refresh the cache rather
		// than mis-index it.
		m.spaces = m.H.Spaces
	}
	s := m.spaces[id]
	off := PtrOff(w)
	if s.MarkedAt(off) {
		return
	}
	s.SetMarkAt(off)
	m.ObjectsMarked++
	m.stack = append(m.stack, w)
}

// Drain scans queued objects until the mark stack is empty, through
// DrainBudget's loop. SetReferenceTracer reroutes it through the retained
// callback-based reference implementation, which marks the same objects in
// the same order and reports identical work counters.
func (m *Marker) Drain() {
	if refTracer {
		m.drainReference()
		return
	}
	m.DrainBudget(math.MaxInt)
}

// DrainBudget scans queued objects until at least budget words have been
// scanned this call or the stack empties, and returns the words scanned. The
// count charges each popped object its full footprint (ObjWords, raw
// payloads included), and WordsMarked grows by the same count: each marked
// object is pushed once and popped once, so after the termination drain the
// slices' return values sum to WordsMarked exactly.
//
// This is the mark engine's one loop, for stop-the-world and incremental
// marking alike. The scan is fused with marking: payload words are iterated
// directly over the owning space's Mem slice — no per-object visitor call,
// no per-slot closure — with raw-payload objects and the hidden census word
// skipped by header inspection.
func (m *Marker) DrainBudget(budget int) int {
	extra := m.H.extraWords
	bounded := m.bounded
	scanned := 0
	// One-entry space cache: traces overwhelmingly stay within one space
	// (and a depth-first pop revisits the space just pushed), so caching
	// the last space elides a spaces-table load per object. curS stays nil
	// until the first lookup so SpaceID 0 is not spuriously "cached".
	var (
		curID SpaceID
		curS  *Space
	)
	lookup := func(id SpaceID) *Space {
		if int(id) >= len(m.spaces) {
			m.spaces = m.H.Spaces
		}
		curID = id
		curS = m.spaces[id]
		return curS
	}
	for len(m.stack) > 0 && scanned < budget {
		w := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		id := PtrSpace(w)
		s := curS
		if id != curID || s == nil {
			s = lookup(id)
		}
		mem := s.Mem
		off := PtrOff(w)
		hdr := mem[off]
		scanned += ObjWords(hdr)
		if RawPayload(HeaderType(hdr)) {
			continue
		}
		for si, end := off+1+extra, off+ObjWords(hdr); si < end; si++ {
			v := mem[si]
			if !IsPtr(v) {
				continue
			}
			vid := PtrSpace(v)
			if bounded && !m.region.Has(vid) {
				continue
			}
			// m.mark inlined: the bit probe and set are the whole per-slot
			// cost, so they must not be a call.
			vs := curS
			if vid != curID || vs == nil {
				vs = lookup(vid)
			}
			voff := PtrOff(v)
			if vs.MarkedAt(voff) {
				continue
			}
			vs.SetMarkAt(voff)
			m.ObjectsMarked++
			m.stack = append(m.stack, v)
		}
	}
	m.WordsMarked += uint64(scanned)
	return scanned
}

// StackEmpty reports whether no gray objects remain queued.
func (m *Marker) StackEmpty() bool { return len(m.stack) == 0 }

// drainReference is the retained callback-per-slot tracer: one ScanObject
// visitor invocation per popped object, one closure call per slot. The
// differential conformance tests hold the fused Drain to this
// implementation's mark sets and word counts.
func (m *Marker) drainReference() {
	for len(m.stack) > 0 {
		w := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		s := m.H.SpaceOf(w)
		m.WordsMarked += uint64(ObjWords(s.Mem[PtrOff(w)]))
		ScanObject(s, PtrOff(w), m.markSlot)
	}
}

// MarkRoots marks the referent of every heap root slot without draining;
// callers with extra roots (remembered sets) mark those next, then Drain. Like
// Evacuator.EvacuateRoots it is VisitRoots' walk — handle stack, then globals:
// the order roots are marked in is the order the mark stack pops them — as two
// loops over the slices, and SetReferenceTracer reroutes it through VisitRoots
// and the slot function.
func (m *Marker) MarkRoots() {
	if refTracer {
		m.H.VisitRoots(m.markSlot)
		return
	}
	m.markSlots(m.H.refs)
	m.markSlots(m.H.globals)
}

func (m *Marker) markSlots(slots []Word) {
	for _, w := range slots {
		if IsPtr(w) && (!m.bounded || m.region.HasPtr(w)) {
			m.mark(w)
		}
	}
}

// Run marks everything reachable from the heap's roots.
func (m *Marker) Run() {
	m.MarkRoots()
	m.Drain()
}

// ClearMarks drops every mark bit in the given spaces. Marks live in the
// side bitmap, so this is a bitmap memclr guided by the per-block dirty
// summary — O(blocks that received marks), not O(whole space): the old
// header-walking unmark pass visited every block, live or dead, once per
// mark/sweep collection.
func ClearMarks(spaces ...*Space) {
	for _, s := range spaces {
		s.ClearMarkBits()
	}
}
