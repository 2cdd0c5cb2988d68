package heap

// This file is the heap's event surface: a nil-by-default EventSink that
// observes every mutator-visible heap mutation (allocations, payload
// stores, root pushes/pops/updates, symbol interning), and the small set of
// word-level entry points a trace replayer needs to reproduce those
// mutations without going through the Ref-typed constructors. The
// uninstrumented cost is one nil check per operation, so the zero-alloc
// guarantees of the collection hot paths are untouched.

// EventSink observes mutator-level heap events. All callbacks receive the
// heap's current words: pointer words are the object's address at event
// time, and a recorder that needs stable identities switches the heap's
// identity table on (TrackIdentity) and asks it (IDOf).
//
// The callback set is complete for the public mutator API: every payload
// word and every root slot a collector can observe is established by some
// sequence of these events.
type EventSink interface {
	// EvAlloc fires once per object allocation, after the header (and any
	// census stamp) is written and the payload zeroed, before the object is
	// reachable from any root.
	EvAlloc(w Word, t Type, payloadWords int)
	// EvStore fires after val is stored into payload slot i of the object w
	// points to, through the write barrier (Cons/Box initializing stores,
	// SetCar/SetCdr/VectorSet/SetBox, and replayed StoreFields).
	EvStore(w Word, i int, val Word)
	// EvFill fires after every payload slot of w is set to val with a
	// single barrier record (MakeVector's initializing fill).
	EvFill(w Word, val Word)
	// EvRaw fires after a raw (non-pointer) word is stored into payload
	// slot i of w without a barrier (Flonum's bits).
	EvRaw(w Word, i int, bits uint64)
	// EvIntern fires when a fresh symbol object w is adopted as the unique
	// symbol named name and rooted globally.
	EvIntern(w Word, name string)
	// EvRootPush fires when w is pushed onto the handle stack.
	EvRootPush(w Word)
	// EvRootPopTo fires when the handle stack is truncated to depth.
	EvRootPopTo(depth int)
	// EvRootSet fires when the slot of Ref r is overwritten with w.
	EvRootSet(r Ref, w Word)
	// EvGlobal fires when w is appended to the permanent root table.
	EvGlobal(w Word)
}

// SetEventSink installs the mutator-event observer; nil removes it. The
// sink sees events from the moment it is installed, so a recorder that
// needs a complete history must attach to a pristine heap.
func (h *Heap) SetEventSink(s EventSink) {
	h.sink = s
	h.rearm()
}

// GlobalRoots returns the number of permanent root slots, exposed for
// tests and the trace recorder's pristine-heap check.
func (h *Heap) GlobalRoots() int { return len(h.globals) }

// AllocObject allocates an object through the installed collector exactly
// as the typed constructors do — it may trigger a collection — and returns
// its pointer word without pushing a handle. Trace replay uses it to
// re-execute recorded allocations; everyone else wants Cons/MakeVector/...
func (h *Heap) AllocObject(t Type, payloadWords int) Word {
	return h.allocObject(t, payloadWords)
}

// StoreField stores val into payload slot i of the object w points to,
// through the write barrier. It is the word-level form of the typed
// mutators (SetCar, VectorSet, ...).
func (h *Heap) StoreField(w Word, i int, val Word) { h.store(w, h.Payload(w), i, val) }

// store is StoreField on the payload p of w, already resolved.
func (h *Heap) store(w Word, p []Word, i int, val Word) {
	p[i] = val
	h.barrier.RecordWrite(w, val)
	if h.sink != nil {
		h.sink.EvStore(w, i, val)
	}
}

// FillFields stores val into every payload slot of the object w points to,
// with a single write-barrier record — MakeVector's initializing fill, in
// replayable form.
func (h *Heap) FillFields(w Word, val Word) { h.fill(w, h.Payload(w), val) }

// fill is FillFields on the payload p of w, already resolved.
func (h *Heap) fill(w Word, p []Word, val Word) {
	for i := range p {
		p[i] = val
	}
	if len(p) > 0 {
		h.barrier.RecordWrite(w, val)
	}
	if h.sink != nil {
		h.sink.EvFill(w, val)
	}
}

// StoreRaw stores raw non-pointer bits into payload slot i of w without a
// write barrier — Flonum's data word, in replayable form.
func (h *Heap) StoreRaw(w Word, i int, bits uint64) { h.raw(w, h.Payload(w), i, bits) }

// raw is StoreRaw on the payload p of w, already resolved.
func (h *Heap) raw(w Word, p []Word, i int, bits uint64) {
	p[i] = Word(bits)
	if h.sink != nil {
		h.sink.EvRaw(w, i, bits)
	}
}

// TruncateRefs pops the handle stack down to depth, releasing every
// handle above it. Trace replay uses it in place of Scope bookkeeping.
func (h *Heap) TruncateRefs(depth int) {
	if depth < 0 || depth > len(h.refs) {
		panic("heap: TruncateRefs depth out of range")
	}
	h.refs = h.refs[:depth]
	if h.sink != nil {
		h.sink.EvRootPopTo(depth)
	}
}

// AdoptSymbol registers the fresh TSymbol object w as the unique symbol
// named name: the symbol id is stored in its payload, the object is rooted
// globally, and the returned Ref is what Intern would have returned. It
// panics if name is already interned; Intern is the only caller on the
// recording side, replay is the other.
func (h *Heap) AdoptSymbol(w Word, name string) Ref {
	if _, ok := h.symtab[name]; ok {
		panic("heap: AdoptSymbol of an already interned name")
	}
	if _, _, ok := h.object(w, TSymbol); !ok {
		panic(h.typeFault(w, TSymbol))
	}
	id := len(h.symNames)
	h.symNames = append(h.symNames, name)
	h.Payload(w)[0] = FixnumWord(int64(id))
	h.globals = append(h.globals, w)
	gi := len(h.globals) - 1
	h.symtab[name] = gi
	if h.sink != nil {
		h.sink.EvIntern(w, name)
	}
	return Ref(-gi - 2)
}

// The sink's calls from push and GlobalWord, out of line: a direct call is
// cheaper in the inliner's count than an interface call, which is the
// margin that lets both inline (push 81 → 79, GlobalWord 82 → 80). With no
// sink installed, what is left of the event at the call site is one nil
// check. Set, Scope.pop and TruncateRefs are over the budget either way, so
// they keep the interface call: a helper there would only add a call to
// every event a recording sees.

//go:noinline
func (h *Heap) evRootPush(w Word) { h.sink.EvRootPush(w) }

//go:noinline
func (h *Heap) evGlobal(w Word) { h.sink.EvGlobal(w) }
