package heap

import (
	"math"
	"testing"
	"testing/quick"
)

// bumpAlloc is a trivial allocator over one space, for testing the heap
// substrate without any collector.
type bumpAlloc struct {
	h *Heap
	s *Space
}

func newBumpHeap(t *testing.T, words int, opts ...Option) (*Heap, *bumpAlloc) {
	t.Helper()
	h := New(opts...)
	a := &bumpAlloc{h: h, s: h.NewSpace("bump", words)}
	h.SetAllocator(a)
	return h, a
}

func (a *bumpAlloc) AllocRaw(t Type, payload int) Word {
	total := 1 + payload + a.h.ExtraWords()
	off, ok := a.s.Bump(total)
	if !ok {
		panic("bumpAlloc: out of memory")
	}
	return a.h.InitObject(a.s, off, t, payload)
}

func TestFixnumRoundTrip(t *testing.T) {
	f := func(n int64) bool {
		n = n << 2 >> 2 // clamp to 62 bits, as the encoding requires
		return FixnumVal(FixnumWord(n)) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPtrRoundTrip(t *testing.T) {
	f := func(id uint16, off uint32) bool {
		w := PtrWord(SpaceID(id), int(off))
		return IsPtr(w) && PtrSpace(w) == SpaceID(id) && PtrOff(w) == int(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	f := func(tRaw uint8, size uint32) bool {
		typ := Type(tRaw % uint8(numTypes))
		h := HeaderWord(typ, int(size))
		if !IsHeader(h) || HeaderType(h) != typ || HeaderSize(h) != int(size) {
			return false
		}
		m := SetMark(h)
		return Marked(m) && !Marked(h) && ClearMark(m) == h &&
			HeaderType(m) == typ && HeaderSize(m) == int(size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImmediates(t *testing.T) {
	words := []Word{NullWord, TrueWord, FalseWord}
	seen := map[Word]bool{}
	for _, w := range words {
		if w&tagMask != TagImm || IsPtr(w) || IsFixnum(w) || IsHeader(w) {
			t.Errorf("immediate %#x misclassified", uint64(w))
		}
		if seen[w] {
			t.Errorf("immediate %#x not distinct", uint64(w))
		}
		seen[w] = true
	}
	if BoolWord(true) != TrueWord || BoolWord(false) != FalseWord {
		t.Error("BoolWord mapping wrong")
	}
}

func TestConsCarCdr(t *testing.T) {
	h, _ := newBumpHeap(t, 1024)
	s := h.Scope()
	defer s.Close()

	a := h.Fix(1)
	b := h.Fix(2)
	p := h.Cons(a, b)
	if !h.IsPair(p) {
		t.Fatal("Cons did not make a pair")
	}
	if got := h.FixVal(h.Car(p)); got != 1 {
		t.Errorf("car = %d, want 1", got)
	}
	if got := h.FixVal(h.Cdr(p)); got != 2 {
		t.Errorf("cdr = %d, want 2", got)
	}
	h.SetCar(p, h.Fix(42))
	if got := h.FixVal(h.Car(p)); got != 42 {
		t.Errorf("after SetCar, car = %d, want 42", got)
	}
}

func TestVector(t *testing.T) {
	h, _ := newBumpHeap(t, 1024)
	s := h.Scope()
	defer s.Close()

	v := h.MakeVector(5, h.Fix(7))
	if n := h.VectorLen(v); n != 5 {
		t.Fatalf("VectorLen = %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		if got := h.FixVal(h.VectorRef(v, i)); got != 7 {
			t.Errorf("slot %d = %d, want 7", i, got)
		}
	}
	h.VectorSet(v, 3, h.Fix(-1))
	if got := h.FixVal(h.VectorRef(v, 3)); got != -1 {
		t.Errorf("after VectorSet, slot 3 = %d, want -1", got)
	}
}

func TestFlonum(t *testing.T) {
	h, _ := newBumpHeap(t, 4096)
	s := h.Scope()
	defer s.Close()
	for _, x := range []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		f := h.Flonum(x)
		if !h.IsFlonum(f) {
			t.Fatalf("Flonum(%g) not a flonum", x)
		}
		if got := h.FlonumVal(f); got != x {
			t.Errorf("FlonumVal = %g, want %g", got, x)
		}
	}
	n := h.Flonum(math.NaN())
	if !math.IsNaN(h.FlonumVal(n)) {
		t.Error("NaN did not round trip")
	}
}

func TestSymbolInterning(t *testing.T) {
	h, _ := newBumpHeap(t, 1024)
	a := h.Intern("rewrite")
	b := h.Intern("rewrite")
	c := h.Intern("other")
	if !h.Eq(a, b) {
		t.Error("same name interned to different symbols")
	}
	if h.Eq(a, c) {
		t.Error("different names interned to same symbol")
	}
	if got := h.SymbolName(a); got != "rewrite" {
		t.Errorf("SymbolName = %q", got)
	}
}

func TestScopesReleaseRefs(t *testing.T) {
	h, _ := newBumpHeap(t, 4096)
	outer := h.Scope()
	defer outer.Close()
	base := h.LiveRefs()

	s := h.Scope()
	for i := 0; i < 10; i++ {
		h.Fix(int64(i))
	}
	if h.LiveRefs() != base+10 {
		t.Fatalf("refs = %d, want %d", h.LiveRefs(), base+10)
	}
	s.Close()
	if h.LiveRefs() != base {
		t.Fatalf("after Close, refs = %d, want %d", h.LiveRefs(), base)
	}

	s2 := h.Scope()
	x := h.Cons(h.Fix(1), h.Null())
	got := s2.Return(x)
	if h.LiveRefs() != base+1 {
		t.Fatalf("after Return, refs = %d, want %d", h.LiveRefs(), base+1)
	}
	if !h.IsPair(got) {
		t.Error("Return lost the value")
	}
}

func TestScopeMisnesting(t *testing.T) {
	h, _ := newBumpHeap(t, 1024)
	s1 := h.Scope()
	h.Fix(1) // make the inner scope's base differ from s1's
	_ = h.Scope()
	defer func() {
		if recover() == nil {
			t.Error("closing scopes out of order did not panic")
		}
	}()
	s1.Close()
}

func TestListHelpers(t *testing.T) {
	h, _ := newBumpHeap(t, 4096)
	s := h.Scope()
	defer s.Close()
	l := h.List(h.Fix(1), h.Fix(2), h.Fix(3))
	if n := h.ListLen(l); n != 3 {
		t.Fatalf("ListLen = %d, want 3", n)
	}
	if got := h.FixVal(h.Car(l)); got != 1 {
		t.Errorf("first = %d", got)
	}
	if got := h.FixVal(h.Car(h.Cdr(l))); got != 2 {
		t.Errorf("second = %d", got)
	}
	empty := h.List()
	if !h.IsNull(empty) {
		t.Error("List() not null")
	}
	if n := h.ListLen(empty); n != 0 {
		t.Errorf("ListLen(()) = %d", n)
	}
}

func TestCensusBirthStamps(t *testing.T) {
	h, _ := newBumpHeap(t, 4096, WithCensus())
	s := h.Scope()
	defer s.Close()
	t0 := h.Now()
	a := h.Cons(h.Null(), h.Null()) // Null() allocates no words
	if got := h.BirthStamp(h.Get(a)); got != t0 {
		t.Errorf("first birth stamp = %d, want %d", got, t0)
	}
	b := h.Cons(h.Null(), h.Null())
	// A census pair is header + birth + car + cdr = 4 words.
	if got := h.BirthStamp(h.Get(b)); got != t0+4 {
		t.Errorf("second birth stamp = %d, want %d", got, t0+4)
	}
}

func TestWalkAndScan(t *testing.T) {
	h, a := newBumpHeap(t, 4096)
	s := h.Scope()
	defer s.Close()
	h.Cons(h.Fix(1), h.Null())
	h.Flonum(3.14)
	h.MakeVector(3, h.Null())

	var types []Type
	WalkSpace(a.s, func(off int, hdr Word) bool {
		types = append(types, HeaderType(hdr))
		return true
	})
	want := []Type{TPair, TFlonum, TVector}
	if len(types) != len(want) {
		t.Fatalf("walked %d objects, want %d", len(types), len(want))
	}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("object %d: type %v, want %v", i, types[i], want[i])
		}
	}

	// ScanObject must skip the flonum's raw payload.
	scanned := 0
	WalkSpace(a.s, func(off int, hdr Word) bool {
		if HeaderType(hdr) == TFlonum {
			ScanObject(a.s, off, func(*Word) { scanned++ })
		}
		return true
	})
	if scanned != 0 {
		t.Errorf("flonum payload scanned %d slots, want 0", scanned)
	}
}

func TestVisitRootsCoversRefsAndGlobals(t *testing.T) {
	h, _ := newBumpHeap(t, 4096)
	s := h.Scope()
	defer s.Close()
	p := h.Cons(h.Fix(1), h.Null())
	g := h.Global(p)
	_ = g

	found := 0
	target := h.Get(p)
	h.VisitRoots(func(slot *Word) {
		if *slot == target {
			found++
		}
	})
	if found < 2 { // once on the handle stack, once in globals
		t.Errorf("root visitor found target %d times, want >= 2", found)
	}
}

func TestEqAndPredicates(t *testing.T) {
	h, _ := newBumpHeap(t, 4096)
	s := h.Scope()
	defer s.Close()
	p := h.Cons(h.Fix(1), h.Null())
	q := h.Cons(h.Fix(1), h.Null())
	if h.Eq(p, q) {
		t.Error("distinct pairs are Eq")
	}
	if !h.Eq(p, h.Dup(p)) {
		t.Error("Dup is not Eq to original")
	}
	if !h.IsNull(h.Null()) || h.IsNull(p) {
		t.Error("IsNull wrong")
	}
	if !h.IsFix(h.Fix(3)) || h.IsFix(p) {
		t.Error("IsFix wrong")
	}
}
