package heap

import (
	"fmt"
	"math"
	"testing"
)

// The mutator's entry points check, resolve and load in a straight line and
// leave their cold paths — a type fault's message, FixnumVal's, push's sink
// call — to out-of-line helpers. The two tests below pin what must not move
// with that layout: the text of every misuse panic and the exact event
// stream a recording sink sees.

// panicText runs f and returns the string it panicked with, or "" if it
// returned.
func panicText(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

func TestMisuseMessages(t *testing.T) {
	h, _ := newBumpHeap(t, 1024)
	s := h.Scope()
	defer s.Close()
	fix := h.Fix(5) // the word 0x14
	pair := h.Cons(fix, fix)
	vec := h.MakeVector(2, fix)

	for _, tc := range []struct {
		name string
		f    func()
		want string
	}{
		{"Car/fixnum", func() { h.Car(fix) }, "heap: expected pair, got non-pointer 0x14"},
		{"Car/vector", func() { h.Car(vec) }, "heap: expected pair, got vector"},
		{"Cdr/fixnum", func() { h.Cdr(fix) }, "heap: expected pair, got non-pointer 0x14"},
		{"Cdr/vector", func() { h.Cdr(vec) }, "heap: expected pair, got vector"},
		{"SetCar/fixnum", func() { h.SetCar(fix, fix) }, "heap: expected pair, got non-pointer 0x14"},
		{"SetCar/vector", func() { h.SetCar(vec, fix) }, "heap: expected pair, got vector"},
		{"VectorRef/fixnum", func() { h.VectorRef(fix, 0) }, "heap: expected vector, got non-pointer 0x14"},
		{"VectorRef/pair", func() { h.VectorRef(pair, 0) }, "heap: expected vector, got pair"},
		{"VectorSet/fixnum", func() { h.VectorSet(fix, 0, fix) }, "heap: expected vector, got non-pointer 0x14"},
		{"VectorSet/pair", func() { h.VectorSet(pair, 0, fix) }, "heap: expected vector, got pair"},
		{"VectorLen/fixnum", func() { h.VectorLen(fix) }, "heap: expected vector, got non-pointer 0x14"},
		{"VectorLen/pair", func() { h.VectorLen(pair) }, "heap: expected vector, got pair"},
		{"Unbox/fixnum", func() { h.Unbox(fix) }, "heap: expected box, got non-pointer 0x14"},
		{"Unbox/pair", func() { h.Unbox(pair) }, "heap: expected box, got pair"},
		{"SetBox/fixnum", func() { h.SetBox(fix, fix) }, "heap: expected box, got non-pointer 0x14"},
		{"SetBox/pair", func() { h.SetBox(pair, fix) }, "heap: expected box, got pair"},
		{"FlonumVal/fixnum", func() { h.FlonumVal(fix) }, "heap: expected flonum, got non-pointer 0x14"},
		{"FlonumVal/pair", func() { h.FlonumVal(pair) }, "heap: expected flonum, got pair"},
		{"SymbolName/fixnum", func() { h.SymbolName(fix) }, "heap: expected symbol, got non-pointer 0x14"},
		{"SymbolName/pair", func() { h.SymbolName(pair) }, "heap: expected symbol, got pair"},
		{"FixnumVal/null", func() { FixnumVal(NullWord) }, "heap: FixnumVal of non-fixnum 0x2"},
		{"FixVal/pair", func() { h.FixVal(pair) }, fmt.Sprintf("heap: FixnumVal of non-fixnum %#x", uint64(h.Get(pair)))},
		{"Get/InvalidRef", func() { h.Get(InvalidRef) }, "heap: use of InvalidRef"},
		{"Car/InvalidRef", func() { h.Car(InvalidRef) }, "heap: use of InvalidRef"},
		{"ReserveBlockedSpaceSpan/0", func() { h.ReserveBlockedSpaceSpan("s", 0, BlockWords) }, "heap: ReserveBlockedSpaceSpan with non-positive size"},
		{"Scope.Close/out of order", func() {
			outer := h.Scope()
			defer outer.Close() // in order, once the panic is under way
			h.Fix(1)            // the inner scope's base differs from outer's
			inner := h.Scope()
			defer inner.Close()
			outer.Close()
		}, "heap: scopes closed out of order"},
	} {
		if got := panicText(tc.f); got != tc.want {
			t.Errorf("%s: panicked with %q, want %q", tc.name, got, tc.want)
		}
	}
}

// recSink records every event with every argument, pointer words included:
// on a bump heap those are deterministic, so the stream can be compared
// line for line.
type recSink struct{ lines []string }

func (r *recSink) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}
func (r *recSink) EvAlloc(w Word, t Type, n int) { r.logf("alloc %#x %v/%d", uint64(w), t, n) }
func (r *recSink) EvStore(w Word, i int, val Word) {
	r.logf("store %#x %d %#x", uint64(w), i, uint64(val))
}
func (r *recSink) EvFill(w Word, val Word)          { r.logf("fill %#x %#x", uint64(w), uint64(val)) }
func (r *recSink) EvRaw(w Word, i int, bits uint64) { r.logf("raw %#x %d %#x", uint64(w), i, bits) }
func (r *recSink) EvIntern(w Word, name string)     { r.logf("intern %#x %s", uint64(w), name) }
func (r *recSink) EvRootPush(w Word)                { r.logf("push %#x", uint64(w)) }
func (r *recSink) EvRootPopTo(depth int)            { r.logf("popto %d", depth) }
func (r *recSink) EvRootSet(ref Ref, w Word)        { r.logf("set %d %#x", ref, uint64(w)) }
func (r *recSink) EvGlobal(w Word)                  { r.logf("global %#x", uint64(w)) }

// TestEventStreamGolden drives every constructor, accessor, predicate,
// scope operation, root update and word-level replay entry point once, in a
// fixed script on a bump heap, and compares the recorded stream to the one
// written out below: each event, its arguments, and its place in the order
// (Flonum is alloc → raw → push, Box alloc → store → push, and so on).
func TestEventStreamGolden(t *testing.T) {
	h, _ := newBumpHeap(t, 1024)
	sink := &recSink{}
	h.SetEventSink(sink)
	defer h.SetEventSink(nil)

	s := h.Scope()
	a := h.Fix(1)
	n := h.Null()
	h.Bool(true)
	p := h.Cons(a, n)
	h.Car(p)
	h.Cdr(p)
	h.SetCar(p, n)
	h.SetCdr(p, a)
	v := h.MakeVector(2, a)
	h.VectorRef(v, 1)
	h.VectorSet(v, 0, p)
	h.VectorLen(v)
	b := h.Box(a)
	h.Unbox(b)
	h.SetBox(b, n)
	f := h.Flonum(1.5)
	h.FlonumVal(f)
	h.Bytevector(9)
	sym := h.Intern("x")
	h.Intern("x")
	h.SymbolName(sym)
	h.FixVal(a)
	h.IsPair(p)
	h.IsVector(v)
	h.IsSymbol(sym)
	h.IsFlonum(f)
	h.IsFix(a)
	h.IsNull(n)
	h.Eq(a, n)
	h.Set(a, FixnumWord(9))
	h.Global(p)
	h.GlobalWord(NullWord)
	h.Dup(p)
	h.RefOf(TrueWord)
	inner := h.Scope()
	h.Fix(7)
	inner.Return(p)
	inner = h.Scope()
	h.Fix(8)
	inner.Close()
	l := h.List(a, n)
	h.ListLen(l)
	w := h.AllocObject(TPair, 2)
	h.StoreField(w, 1, h.Get(a))
	h.FillFields(h.Get(v), NullWord)
	h.StoreRaw(h.Get(f), 0, math.Float64bits(-2))
	h.RefOf(w)
	h.TruncateRefs(h.LiveRefs() - 1)
	h.AdoptSymbol(h.AllocObject(TSymbol, 1), "y")
	s.Close()

	want := []string{
		"push 0x4",                                                           // Fix
		"push 0x2",                                                           // Null
		"push 0xa",                                                           // Bool
		"alloc 0x1 pair/2", "store 0x1 0 0x4", "store 0x1 1 0x2", "push 0x1", // Cons
		"push 0x4", "push 0x2", // Car, Cdr
		"store 0x1 0 0x2", "store 0x1 1 0x4", // SetCar, SetCdr
		"alloc 0xd vector/2", "fill 0xd 0x4", "push 0xd", // MakeVector
		"push 0x4",                                          // VectorRef
		"store 0xd 0 0x1",                                   // VectorSet
		"alloc 0x19 box/1", "store 0x19 0 0x4", "push 0x19", // Box
		"push 0x4",                                                          // Unbox
		"store 0x19 0 0x2",                                                  // SetBox
		"alloc 0x21 flonum/1", "raw 0x21 0 0x3ff8000000000000", "push 0x21", // Flonum
		"alloc 0x29 bytevector/2", "push 0x29", // Bytevector
		"alloc 0x35 symbol/1", "intern 0x35 x", // Intern, then a hit: nothing
		"set 0 0x24",                        // Set
		"global 0x1",                        // Global
		"global 0x2",                        // GlobalWord
		"push 0x1",                          // Dup
		"push 0xa",                          // RefOf
		"push 0x1c", "popto 14", "push 0x1", // Fix in a scope, Return
		"push 0x20", "popto 15", // Fix in a scope, Close
		// List: Null, two Cons, Return.
		"push 0x2",
		"alloc 0x3d pair/2", "store 0x3d 0 0x2", "store 0x3d 1 0x2", "push 0x3d",
		"alloc 0x49 pair/2", "store 0x49 0 0x24", "store 0x49 1 0x3d", "push 0x49",
		"popto 15", "push 0x49",
		// ListLen: Dup, then a Set per pair, Close.
		"push 0x49", "set 16 0x3d", "set 16 0x2", "popto 16",
		"alloc 0x55 pair/2",             // AllocObject
		"store 0x55 1 0x24",             // StoreField
		"fill 0xd 0x2",                  // FillFields
		"raw 0x21 0 0xc000000000000000", // StoreRaw
		"push 0x55", "popto 16",         // RefOf, TruncateRefs
		"alloc 0x61 symbol/1", "intern 0x61 y", // AdoptSymbol
		"popto 0", // Close
	}
	if len(sink.lines) != len(want) {
		t.Errorf("got %d events, want %d", len(sink.lines), len(want))
	}
	for i := 0; i < len(sink.lines) || i < len(want); i++ {
		var got, w string
		if i < len(sink.lines) {
			got = sink.lines[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if got != w {
			t.Errorf("event %d = %q, want %q", i, got, w)
		}
	}
}
