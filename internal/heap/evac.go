package heap

import "fmt"

// Evacuator is a generic Cheney copying engine. Every copying collection in
// the repository — semispace flips, nursery evacuations, promotions, and the
// non-predictive collector's older-first collections — is an Evacuator run
// with a different from-region and target list.
//
// An Evacuator is built once per collector and re-armed with Begin before
// each collection: the target list and Cheney scan state reuse their
// backing arrays, so steady-state collections allocate nothing.
//
// The from-region is declared as a set of spaces (SetFrom / From), so the
// per-slot membership test is a bit test rather than an indirect call.
//
// Usage: configure H and the from-region; call Begin with the collection's
// targets; call Evacuate on every root slot (and remembered-set slot); then
// call Drain. After Drain returns, every object reachable from the visited
// slots has been copied out of the from-region and all copied slots have
// been updated.
type Evacuator struct {
	H *Heap

	// Targets are filled in order; an object is copied into the first
	// target with room. Collectors must provide enough total room for the
	// worst case (all of from-region live) or set Overflow.
	Targets []*Space

	// cur is the first target that has not refused a request this run, and
	// prefixFree bounds the free words of Targets[:cur] from above. A
	// target's free words only shrink during a run, so a request larger
	// than prefixFree fits no earlier target and first-fit placement starts
	// at cur; only a request of at most prefixFree words scans from 0.
	cur        int
	prefixFree int

	// Overflow, when non-nil, is called with the failing request size when
	// every target is full; it must return a fresh space (a reservation will
	// do) with room for the request, which is appended to Targets. When nil,
	// overflow panics.
	Overflow func(need int) *Space

	// from is the from-region: a bitset of SpaceIDs.
	from SpaceSet

	// spaces caches H.Spaces for the duration of a run, saving a pointer
	// chase per forwarded object. Begin refreshes it; reserve re-refreshes
	// after Overflow registers a new space.
	spaces []*Space

	// extra caches H.ExtraWords() so the fused drain can skip the hidden
	// census word without a per-object heap dereference.
	extra int

	// scanBase[i] is the offset in Targets[i] where this run's copies began.
	scanBase []int
	// scan[i] is the per-target scan cursor for the gray region.
	scan []int

	// evacSlot is the Evacuate method value, bound once so passing it to
	// VisitRoots/ScanObject never allocates.
	evacSlot func(slot *Word)

	// tenured is set by BeginTenured and cleared by Begin: while it is on,
	// forward reserves by header age (tenure.go) and Drain also scans
	// the survivor targets in ten. ten is created on the first BeginTenured
	// and reused, so steady-state tenured collections allocate nothing;
	// wholesale runs never read it.
	tenured bool
	ten     *tenureState

	WordsCopied   uint64
	ObjectsCopied int

	// WordsPromoted and WordsRetained split WordsCopied for tenured runs
	// (tenure.go): words that reached the old targets versus words kept in
	// the survivor shadow. Both stay 0 on wholesale runs, where every
	// copied word is a promotion decision left to the collector.
	WordsPromoted uint64
	WordsRetained uint64
}

// NewEvacuator prepares an engine whose copies land in targets, recording
// the current tops so only newly copied objects are scanned; collectors
// declare the from-region with SetFrom. inFrom must be nil: the parameter is
// what remains of a removed predicate from-region, kept only until every
// caller drops the argument.
func NewEvacuator(h *Heap, inFrom func(w Word) bool, targets ...*Space) *Evacuator {
	if inFrom != nil {
		panic("heap: NewEvacuator no longer takes a from-region predicate; declare the region with SetFrom")
	}
	e := &Evacuator{H: h}
	e.evacSlot = e.Evacuate
	e.Begin(targets...)
	return e
}

// SetFrom declares the from-region as exactly the given spaces. The set's
// backing array is reused, so re-arming between collections allocates
// nothing.
func (e *Evacuator) SetFrom(spaces ...*Space) {
	e.from.Clear()
	for _, s := range spaces {
		e.from.Add(s.ID)
	}
}

// From exposes the from-set for incremental population (e.g. the step
// machinery adding steps j+1..k one by one). Member spaces must exist
// before the run begins.
func (e *Evacuator) From() *SpaceSet { return &e.from }

// Begin re-arms the evacuator for a new collection whose copies land in
// targets: a target that is still a reservation gets its memory, the work
// counters reset, the current target tops are recorded as scan bases, the
// space cache refreshes, and all internal slices reuse their backing arrays.
// The from-region and Overflow are left as configured; age routing is
// switched off (BeginTenured switches it on).
func (e *Evacuator) Begin(targets ...*Space) {
	e.Targets = append(e.Targets[:0], targets...)
	e.scanBase = e.scanBase[:0]
	e.scan = e.scan[:0]
	for _, t := range e.Targets {
		t.back()
		e.scanBase = append(e.scanBase, t.Top)
		e.scan = append(e.scan, t.Top)
	}
	e.cur, e.prefixFree = 0, 0
	e.spaces = e.H.Spaces
	e.extra = e.H.extraWords
	e.WordsCopied = 0
	e.ObjectsCopied = 0
	e.WordsPromoted = 0
	e.WordsRetained = 0
	e.tenured = false
}

// Slot returns the evacuator's stored slot-visitor function. Passing it to
// a root iterator (instead of the Evacuate method value) avoids allocating
// a fresh bound-method closure at every collection.
func (e *Evacuator) Slot() func(slot *Word) { return e.evacSlot }

// Evacuate processes one slot: if it holds a pointer into the from-region,
// the target object is copied (or its existing forwarding followed) and the
// slot updated.
func (e *Evacuator) Evacuate(slot *Word) {
	w := *slot
	if !IsPtr(w) || !e.from.HasPtr(w) {
		return
	}
	*slot = e.forward(w)
}

// forward copies the object w points to out of the from-region (or follows
// its existing forwarding pointer) and returns its new address. This is the
// engine's one copy-and-install path; a tenured run differs only
// in where the copy's space is reserved.
func (e *Evacuator) forward(w Word) Word {
	s := e.spaces[PtrSpace(w)] // from-spaces all predate Begin
	off := PtrOff(w)
	hdr := s.Mem[off]
	if IsPtr(hdr) { // already forwarded: header slot holds the new address
		return hdr
	}
	n := ObjWords(hdr)
	var toSpace *Space
	var toOff int
	if e.tenured {
		toSpace, toOff = e.reserveByAge(s, off, hdr, n)
	}
	if toSpace == nil { // wholesale, or promoted
		if ts := e.Targets; n > e.prefixFree && e.cur < len(ts) && ts[e.cur].Top+n <= len(ts[e.cur].Mem) {
			// reserve's answer, without the call: nearly every copy lands in
			// the cursor's target. (A run may begin with no target at all and
			// take every space from Overflow.)
			toSpace, toOff = ts[e.cur], ts[e.cur].Top
			toSpace.Top += n
		} else {
			toSpace, toOff = e.reserve(n)
		}
	}
	if n == 3 {
		// A pair, the commonest object by far: three stores, where copy would
		// call memmove for 24 bytes.
		dst, src := toSpace.Mem[toOff:toOff+3], s.Mem[off:off+3]
		dst[0], dst[1], dst[2] = src[0], src[1], src[2]
	} else {
		copy(toSpace.Mem[toOff:toOff+n], s.Mem[off:off+n])
	}
	fwd := PtrWord(toSpace.ID, toOff)
	s.Mem[off] = fwd
	e.WordsCopied += uint64(n)
	e.ObjectsCopied++
	if s.ids != nil {
		e.H.carryIdentity(s, off, toSpace, toOff, fwd)
	}
	return fwd
}

// reserve bumps n words in the first target with room, asking Overflow for a
// new one when none has. The search starts at the cursor unless an earlier
// target may fit n (n <= prefixFree); a target at the cursor that refuses
// joins the prefix, and an Overflow space, appended once every target has
// refused, becomes the cursor.
func (e *Evacuator) reserve(n int) (*Space, int) {
	if n <= e.prefixFree {
		// Every earlier target is tried in order, as plain first-fit would;
		// when all refuse, the bound is re-measured, which can only lower it.
		most := 0
		for _, t := range e.Targets[:e.cur] {
			if off, ok := t.Bump(n); ok {
				return t, off
			}
			most = max(most, t.Free())
		}
		e.prefixFree = most
	}
	for ; e.cur < len(e.Targets); e.cur++ {
		t := e.Targets[e.cur]
		if off, ok := t.Bump(n); ok {
			return t, off
		}
		e.prefixFree = max(e.prefixFree, t.Free())
	}
	if e.Overflow != nil {
		t := e.Overflow(n)
		// Validate before adopting: appending an unusable space to
		// Targets/scan/scanBase would leave the engine inconsistent when
		// the panic below fires.
		if t == nil {
			panic(fmt.Sprintf("heap: evacuation overflow: Overflow returned nil for a %d-word request", n))
		}
		if t.Free() < n {
			panic(fmt.Sprintf("heap: evacuation overflow: Overflow returned space %q with %d free words, too small for %d",
				t.Name, t.Free(), n))
		}
		t.back()
		e.Targets = append(e.Targets, t)
		e.scanBase = append(e.scanBase, t.Top)
		e.scan = append(e.scan, t.Top)
		e.spaces = e.H.Spaces // Overflow registered a new space
		off, _ := t.Bump(n)
		return t, off
	}
	panic(fmt.Sprintf("heap: evacuation overflow: no target space has %d free words", n))
}

// Drain scans the gray region of every target, evacuating whatever the
// copied objects reference, until no gray objects remain, through cheney's
// loop. SetReferenceTracer reroutes wholesale runs through the retained
// callback-based reference implementation, which produces bit-identical
// heaps and identical work counters; it knows only the promotion targets,
// so tenured runs always take the fused loop.
func (e *Evacuator) Drain() {
	if refTracer && !e.tenured {
		e.drainReference()
		return
	}
	for {
		progress := false
		// Targets appended by Overflow mid-pass are picked up on the next
		// pass, exactly as the reference tracer's range does, so both
		// tracers forward objects in the same order.
		for i, nT := 0, len(e.Targets); i < nT; i++ {
			if t := e.Targets[i]; e.scan[i] < t.Top {
				progress = true
				// Two statements: Overflow may reallocate e.scan mid-scan,
				// so it is indexed only after cheney returns.
				scan := e.cheney(t, e.scan[i])
				e.scan[i] = scan
			}
		}
		if e.tenured {
			// Survivor targets are scanned after the promotion targets in
			// every pass.
			ten := e.ten
			for i, y := range ten.young {
				if ten.youngScan[i] < y.Top {
					progress = true
					ten.youngScan[i] = e.cheney(y, ten.youngScan[i])
				}
			}
		}
		if !progress {
			return
		}
	}
}

// cheney scans target t from offset scan up to its (moving) Top and returns
// the new scan cursor. This is the engine's one loop. The scan
// is fused with evacuation: payload words are iterated directly over the
// target's Mem slice — no per-object visitor call, no per-slot closure —
// with raw-payload objects and the hidden census word skipped by header
// inspection. A wholesale copy that fits the cursor's target and no earlier
// one — forward's own fast branch — is made here without a call, with the
// cursor, the prefix bound, the space cache and the work counts held in
// locals; everything else (a refusal, Overflow, age routing) goes through
// forward, after which the locals are read again.
func (e *Evacuator) cheney(t *Space, scan int) int {
	mem := t.Mem
	extra := e.extra
	spaces := e.spaces
	to, prefixFree := e.cursor()
	var words uint64
	var objects int
	for scan < t.Top {
		hdr := mem[scan]
		n := ObjWords(hdr)
		if !RawPayload(HeaderType(hdr)) {
			for si, end := scan+1+extra, scan+n; si < end; si++ {
				w := mem[si]
				if !IsPtr(w) || !e.from.Has(PtrSpace(w)) {
					continue
				}
				s, off := spaces[PtrSpace(w)], PtrOff(w)
				fh := s.Mem[off]
				if IsPtr(fh) { // already forwarded
					mem[si] = fh
					continue
				}
				fn := ObjWords(fh)
				if to == nil || fn <= prefixFree || to.Top+fn > len(to.Mem) {
					mem[si] = e.forward(w)
					to, prefixFree = e.cursor()
					spaces = e.spaces
					continue
				}
				toOff := to.Top
				to.Top = toOff + fn
				if fn == 3 {
					dst, src := to.Mem[toOff:toOff+3], s.Mem[off:off+3]
					dst[0], dst[1], dst[2] = src[0], src[1], src[2]
				} else {
					copy(to.Mem[toOff:toOff+fn], s.Mem[off:off+fn])
				}
				fwd := PtrWord(to.ID, toOff)
				s.Mem[off] = fwd
				words += uint64(fn)
				objects++
				if s.ids != nil {
					e.H.carryIdentity(s, off, to, toOff, fwd)
				}
				mem[si] = fwd
			}
		}
		scan += n
	}
	e.WordsCopied += words
	e.ObjectsCopied += objects
	return scan
}

// cursor returns the target cheney copies into without calling forward and
// the prefix bound a copy must exceed to go there: nil on a tenured run,
// where every copy is routed by age, and when no target is left to try.
func (e *Evacuator) cursor() (*Space, int) {
	if e.tenured || e.cur >= len(e.Targets) {
		return nil, 0
	}
	return e.Targets[e.cur], e.prefixFree
}

// drainReference is the retained callback-per-slot tracer: one ScanObject
// visitor invocation per gray object, one closure call per slot. The
// differential conformance tests hold the fused Drain to this
// implementation's heap images and word counts.
func (e *Evacuator) drainReference() {
	for {
		progress := false
		for i, t := range e.Targets {
			for e.scan[i] < t.Top {
				progress = true
				off := e.scan[i]
				hdr := t.Mem[off]
				ScanObject(t, off, e.evacSlot)
				e.scan[i] = off + ObjWords(hdr)
			}
		}
		if !progress {
			return
		}
	}
}

// EvacuateRoots evacuates every heap root slot without draining; callers
// with extra roots (remembered sets) evacuate those next, then Drain. It
// walks the handle stack and then the globals, the order VisitRoots has —
// the order roots are forwarded in is the order their referents land in the
// targets — but as two loops over the slices, not a function-value call per
// slot. SetReferenceTracer reroutes it through VisitRoots and Evacuate, so
// the conformance differential holds the loops to the callback form.
func (e *Evacuator) EvacuateRoots() {
	if refTracer {
		e.H.VisitRoots(e.evacSlot)
		return
	}
	e.evacuateSlots(e.H.refs)
	e.evacuateSlots(e.H.globals)
}

func (e *Evacuator) evacuateSlots(slots []Word) {
	for i, w := range slots {
		if IsPtr(w) && e.from.HasPtr(w) {
			slots[i] = e.forward(w)
		}
	}
}

// CopiedRegions calls f for every target region that received copies during
// this run, with the offset where the run's copies began and the current
// top. Collectors use it to rescan exactly the promoted objects (e.g. the
// hybrid's situation-5 remembered-set rebuild).
func (e *Evacuator) CopiedRegions(f func(s *Space, from, to int)) {
	for i, t := range e.Targets {
		if e.scanBase[i] < t.Top {
			f(t, e.scanBase[i], t.Top)
		}
	}
}

// Run is the common whole-collection shape: evacuate all heap roots, then
// drain. Collectors with extra roots (remembered sets) evacuate those
// explicitly before calling Drain instead.
func (e *Evacuator) Run() {
	e.EvacuateRoots()
	e.Drain()
}
