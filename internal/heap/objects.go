package heap

import (
	"fmt"
	"math"
)

// This file defines the Scheme-flavoured object constructors and accessors
// the benchmark programs use. Constructors resolve their Ref arguments
// *after* allocation, because allocation may trigger a collection that
// moves the referents; the Refs track the move, bare Words would not.

// Fix pushes a fixnum handle.
func (h *Heap) Fix(n int64) Ref { return h.push(FixnumWord(n)) }

// Null pushes the empty-list handle.
func (h *Heap) Null() Ref { return h.push(NullWord) }

// Bool pushes a boolean handle.
func (h *Heap) Bool(b bool) Ref { return h.push(BoolWord(b)) }

// Cons allocates a pair. Initializing stores go through the write barrier
// because a non-predictive collector must remember young-to-old pointers
// however they arise (Section 8.4, situations 5 and 6).
func (h *Heap) Cons(car, cdr Ref) Ref {
	w := h.allocObject(TPair, 2)
	a, d := h.Get(car), h.Get(cdr)
	f := h.fields(w, 2)
	f[0], f[1] = a, d
	h.barrier.RecordWrite(w, a)
	h.barrier.RecordWrite(w, d)
	if h.sink != nil {
		h.sink.EvStore(w, 0, a)
		h.sink.EvStore(w, 1, d)
	}
	return h.push(w)
}

// Car pushes a handle to the car of pair r.
func (h *Heap) Car(r Ref) Ref { return h.pairRef(r, 0) }

// Cdr pushes a handle to the cdr of pair r.
func (h *Heap) Cdr(r Ref) Ref { return h.pairRef(r, 1) }

func (h *Heap) pairRef(r Ref, i int) Ref {
	w := h.Get(r)
	m, off, ok := h.object(w, TPair)
	if !ok {
		panic(h.typeFault(w, TPair))
	}
	return h.push(m[off+1+h.extraWords+i])
}

// SetCar stores v into the car of pair r, through the write barrier.
func (h *Heap) SetCar(r, v Ref) { h.setField(r, TPair, 0, v) }

// SetCdr stores v into the cdr of pair r, through the write barrier.
func (h *Heap) SetCdr(r, v Ref) { h.setField(r, TPair, 1, v) }

func (h *Heap) setField(r Ref, t Type, i int, v Ref) {
	w := h.Get(r)
	m, off, ok := h.object(w, t)
	if !ok {
		panic(h.typeFault(w, t))
	}
	h.store(w, h.payload(m, off), i, h.Get(v))
}

// MakeVector allocates a vector of n slots, each initialized to fill.
func (h *Heap) MakeVector(n int, fill Ref) Ref {
	w := h.allocObject(TVector, n)
	h.fill(w, h.fields(w, n), h.Get(fill))
	return h.push(w)
}

// VectorLen returns the slot count of vector r.
func (h *Heap) VectorLen(r Ref) int {
	w := h.Get(r)
	m, off, ok := h.object(w, TVector)
	if !ok {
		panic(h.typeFault(w, TVector))
	}
	return HeaderSize(m[off]) - h.extraWords
}

// VectorRef pushes a handle to slot i of vector r.
func (h *Heap) VectorRef(r Ref, i int) Ref {
	w := h.Get(r)
	m, off, ok := h.object(w, TVector)
	if !ok {
		panic(h.typeFault(w, TVector))
	}
	return h.push(h.payload(m, off)[i])
}

// VectorSet stores v into slot i of vector r, through the write barrier.
func (h *Heap) VectorSet(r Ref, i int, v Ref) { h.setField(r, TVector, i, v) }

// Box allocates a one-slot mutable cell.
func (h *Heap) Box(v Ref) Ref {
	w := h.allocObject(TBox, 1)
	h.store(w, h.fields(w, 1), 0, h.Get(v))
	return h.push(w)
}

// Unbox pushes a handle to the contents of box r.
func (h *Heap) Unbox(r Ref) Ref {
	w := h.Get(r)
	m, off, ok := h.object(w, TBox)
	if !ok {
		panic(h.typeFault(w, TBox))
	}
	return h.push(m[off+1+h.extraWords])
}

// SetBox stores v into box r, through the write barrier.
func (h *Heap) SetBox(r, v Ref) { h.setField(r, TBox, 0, v) }

// Flonum allocates a boxed float64. Matching Larceny's uniform
// representation, every floating-point temporary in the benchmarks is one
// of these: a header plus one raw data word (plus the census word).
func (h *Heap) Flonum(x float64) Ref {
	w := h.allocObject(TFlonum, 1)
	h.raw(w, h.fields(w, 1), 0, math.Float64bits(x))
	return h.push(w)
}

// FlonumVal returns the float64 held by flonum r.
func (h *Heap) FlonumVal(r Ref) float64 {
	w := h.Get(r)
	m, off, ok := h.object(w, TFlonum)
	if !ok {
		panic(h.typeFault(w, TFlonum))
	}
	return math.Float64frombits(uint64(m[off+1+h.extraWords]))
}

// Bytevector allocates a raw byte buffer of n bytes (rounded up to words).
func (h *Heap) Bytevector(n int) Ref {
	words := (n + 7) / 8
	if words == 0 {
		words = 1
	}
	w := h.allocObject(TBytevec, words)
	return h.push(w)
}

// Intern returns the unique symbol object named name, allocating it on
// first use and rooting it globally. Symbol identity is pointer identity.
func (h *Heap) Intern(name string) Ref {
	if gi, ok := h.symtab[name]; ok {
		return Ref(-gi - 2)
	}
	w := h.allocObject(TSymbol, 1)
	return h.AdoptSymbol(w, name)
}

// SymbolName returns the print name of symbol r.
func (h *Heap) SymbolName(r Ref) string {
	w := h.Get(r)
	m, off, ok := h.object(w, TSymbol)
	if !ok {
		panic(h.typeFault(w, TSymbol))
	}
	return h.symNames[FixnumVal(m[off+1+h.extraWords])]
}

// Type predicates and structural helpers.

// IsNull reports whether r holds the empty list.
func (h *Heap) IsNull(r Ref) bool { return h.Get(r) == NullWord }

// IsPair reports whether r holds a pair.
func (h *Heap) IsPair(r Ref) bool { return h.isType(r, TPair) }

// IsVector reports whether r holds a vector.
func (h *Heap) IsVector(r Ref) bool { return h.isType(r, TVector) }

// IsSymbol reports whether r holds a symbol.
func (h *Heap) IsSymbol(r Ref) bool { return h.isType(r, TSymbol) }

// IsFlonum reports whether r holds a boxed float.
func (h *Heap) IsFlonum(r Ref) bool { return h.isType(r, TFlonum) }

// IsFix reports whether r holds a fixnum.
func (h *Heap) IsFix(r Ref) bool { return IsFixnum(h.Get(r)) }

// FixVal returns the integer held by fixnum r.
func (h *Heap) FixVal(r Ref) int64 { return FixnumVal(h.Get(r)) }

// isType is object's check with the pointer decoded by hand rather than by
// PtrSpace and PtrOff, which keeps it, and the predicates with it, within
// the inliner's budget.
func (h *Heap) isType(r Ref, t Type) bool {
	w := h.Get(r)
	return IsPtr(w) && HeaderType(h.Spaces[w>>ptrSpaceShift].Mem[uint32(w>>ptrOffShift)]) == t
}

// Eq reports pointer/immediate identity of two handles (Scheme eq?).
func (h *Heap) Eq(a, b Ref) bool { return h.Get(a) == h.Get(b) }

// object resolves w, when it points to an object of type t, to the memory
// of the object's space and the offset of its header: one space lookup and
// one header load, which is every typed accessor's check and all it needs
// to reach the payload. ok is false for a non-pointer or another type, and
// the accessor then panics with typeFault's message.
func (h *Heap) object(w Word, t Type) (m []Word, off int, ok bool) {
	if !IsPtr(w) {
		return nil, 0, false
	}
	m, off = h.Spaces[PtrSpace(w)].Mem, PtrOff(w)
	return m, off, HeaderType(m[off]) == t
}

// payload is Payload for an object that object has already resolved.
func (h *Heap) payload(m []Word, off int) []Word {
	return m[off+1+h.extraWords : off+1+HeaderSize(m[off])]
}

// fields returns the n payload words of the object allocObject just
// returned as w: one space lookup, and a constructor knows its payload
// length, so it need not re-read the header it has just written.
func (h *Heap) fields(w Word, n int) []Word {
	i := PtrOff(w) + 1 + h.extraWords
	return h.SpaceOf(w).Mem[i : i+n]
}

// typeFault is the panic message of a typed accessor whose argument w is
// not an object of type t. It is out of line, so what an accessor inlines
// of its check is a compare and a branch.
//
//go:noinline
func (h *Heap) typeFault(w Word, t Type) string {
	if !IsPtr(w) {
		return fmt.Sprintf("heap: expected %v, got non-pointer %#x", t, uint64(w))
	}
	return fmt.Sprintf("heap: expected %v, got %v", t, HeaderType(h.Header(w)))
}

// List builds a proper list from the given elements.
func (h *Heap) List(elems ...Ref) Ref {
	s := h.Scope()
	acc := h.Null()
	for i := len(elems) - 1; i >= 0; i-- {
		acc = h.Cons(elems[i], acc)
	}
	return s.Return(acc)
}

// ListLen returns the length of the proper list r.
func (h *Heap) ListLen(r Ref) int {
	s := h.Scope()
	defer s.Close()
	n := 0
	cur := h.Dup(r)
	for h.IsPair(cur) {
		n++
		h.Set(cur, h.Payload(h.Get(cur))[1])
	}
	return n
}
