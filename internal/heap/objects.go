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
	// The two fields follow the header (and the census word): one space
	// lookup and no Payload slice, whose bounds come from re-reading the
	// header just written.
	i := PtrOff(w) + 1 + h.extraWords
	f := h.SpaceOf(w).Mem[i : i+2]
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
func (h *Heap) Car(r Ref) Ref { return h.push(h.pairField(r, 0)) }

// Cdr pushes a handle to the cdr of pair r.
func (h *Heap) Cdr(r Ref) Ref { return h.push(h.pairField(r, 1)) }

func (h *Heap) pairField(r Ref, i int) Word {
	w := h.Get(r)
	h.checkType(w, TPair)
	return h.Payload(w)[i]
}

// SetCar stores v into the car of pair r, through the write barrier.
func (h *Heap) SetCar(r, v Ref) { h.setField(r, TPair, 0, v) }

// SetCdr stores v into the cdr of pair r, through the write barrier.
func (h *Heap) SetCdr(r, v Ref) { h.setField(r, TPair, 1, v) }

func (h *Heap) setField(r Ref, t Type, i int, v Ref) {
	w := h.Get(r)
	h.checkType(w, t)
	h.StoreField(w, i, h.Get(v))
}

// MakeVector allocates a vector of n slots, each initialized to fill.
func (h *Heap) MakeVector(n int, fill Ref) Ref {
	w := h.allocObject(TVector, n)
	h.FillFields(w, h.Get(fill))
	return h.push(w)
}

// VectorLen returns the slot count of vector r.
func (h *Heap) VectorLen(r Ref) int {
	w := h.Get(r)
	h.checkType(w, TVector)
	return len(h.Payload(w))
}

// VectorRef pushes a handle to slot i of vector r.
func (h *Heap) VectorRef(r Ref, i int) Ref {
	w := h.Get(r)
	h.checkType(w, TVector)
	return h.push(h.Payload(w)[i])
}

// VectorSet stores v into slot i of vector r, through the write barrier.
func (h *Heap) VectorSet(r Ref, i int, v Ref) { h.setField(r, TVector, i, v) }

// Box allocates a one-slot mutable cell.
func (h *Heap) Box(v Ref) Ref {
	w := h.allocObject(TBox, 1)
	h.StoreField(w, 0, h.Get(v))
	return h.push(w)
}

// Unbox pushes a handle to the contents of box r.
func (h *Heap) Unbox(r Ref) Ref {
	w := h.Get(r)
	h.checkType(w, TBox)
	return h.push(h.Payload(w)[0])
}

// SetBox stores v into box r, through the write barrier.
func (h *Heap) SetBox(r, v Ref) { h.setField(r, TBox, 0, v) }

// Flonum allocates a boxed float64. Matching Larceny's uniform
// representation, every floating-point temporary in the benchmarks is one
// of these: a header plus one raw data word (plus the census word).
func (h *Heap) Flonum(x float64) Ref {
	w := h.allocObject(TFlonum, 1)
	h.StoreRaw(w, 0, math.Float64bits(x))
	return h.push(w)
}

// FlonumVal returns the float64 held by flonum r.
func (h *Heap) FlonumVal(r Ref) float64 {
	w := h.Get(r)
	h.checkType(w, TFlonum)
	return math.Float64frombits(uint64(h.Payload(w)[0]))
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
	h.checkType(w, TSymbol)
	return h.symNames[FixnumVal(h.Payload(w)[0])]
}

// Type predicates and structural helpers.

// IsNull reports whether r holds the empty list.
func (h *Heap) IsNull(r Ref) bool { return h.Get(r) == NullWord }

// IsFalse reports whether r holds #f. Everything else is truthy.
func (h *Heap) IsFalse(r Ref) bool { return h.Get(r) == FalseWord }

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

func (h *Heap) isType(r Ref, t Type) bool {
	w := h.Get(r)
	return IsPtr(w) && HeaderType(h.Header(w)) == t
}

// Eq reports pointer/immediate identity of two handles (Scheme eq?).
func (h *Heap) Eq(a, b Ref) bool { return h.Get(a) == h.Get(b) }

func (h *Heap) checkType(w Word, t Type) {
	if !IsPtr(w) {
		panic(fmt.Sprintf("heap: expected %v, got non-pointer %#x", t, uint64(w)))
	}
	if got := HeaderType(h.Header(w)); got != t {
		panic(fmt.Sprintf("heap: expected %v, got %v", t, got))
	}
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
		h.Set(cur, h.pairField(cur, 1))
	}
	return n
}
