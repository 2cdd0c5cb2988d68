package heap

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// logSink records every event as a formatted line, for asserting exactly
// which events each mutator operation produces.
type logSink struct{ lines []string }

func (l *logSink) logf(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}
func (l *logSink) EvAlloc(w Word, t Type, payload int) { l.logf("alloc %v/%d", t, payload) }
func (l *logSink) EvStore(w Word, i int, val Word)     { l.logf("store %d %#x", i, uint64(val)) }
func (l *logSink) EvFill(w Word, val Word)             { l.logf("fill %#x", uint64(val)) }
func (l *logSink) EvRaw(w Word, i int, bits uint64)    { l.logf("raw %d %#x", i, bits) }
func (l *logSink) EvIntern(w Word, name string)        { l.logf("intern %s", name) }
func (l *logSink) EvRootPush(w Word)                   { l.logf("push %#x", uint64(w)) }
func (l *logSink) EvRootPopTo(depth int)               { l.logf("popto %d", depth) }
func (l *logSink) EvRootSet(r Ref, w Word)             { l.logf("set %d %#x", r, uint64(w)) }
func (l *logSink) EvGlobal(w Word)                     { l.logf("global %#x", uint64(w)) }

func (l *logSink) take() []string {
	out := l.lines
	l.lines = nil
	return out
}

func wantEvents(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events %q, want %d %q", len(got), got, len(want), want)
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("event %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
}

func TestEventSinkCoversMutatorOps(t *testing.T) {
	h, _ := newBumpHeap(t, 4096)
	sink := &logSink{}
	h.SetEventSink(sink)
	defer h.SetEventSink(nil)

	s := h.Scope()
	a := h.Fix(1)
	b := h.Null()
	wantEvents(t, sink.take(), "push", "push")

	p := h.Cons(a, b)
	wantEvents(t, sink.take(), "alloc pair/2", "store 0", "store 1", "push")

	h.SetCar(p, b)
	wantEvents(t, sink.take(), "store 0")

	v := h.MakeVector(3, a)
	wantEvents(t, sink.take(), "alloc vector/3", "fill", "push")
	h.VectorSet(v, 2, p)
	wantEvents(t, sink.take(), "store 2")

	bx := h.Box(a)
	wantEvents(t, sink.take(), "alloc box/1", "store 0", "push")
	h.SetBox(bx, b)
	wantEvents(t, sink.take(), "store 0")

	h.Flonum(1.5)
	wantEvents(t, sink.take(),
		"alloc flonum/1", fmt.Sprintf("raw 0 %#x", math.Float64bits(1.5)), "push")

	sym := h.Intern("x")
	wantEvents(t, sink.take(), "alloc symbol/1", "intern x")
	if h.Intern("x") != sym {
		t.Error("re-intern changed identity")
	}
	wantEvents(t, sink.take()) // dedup hit: no events

	h.Set(a, FixnumWord(9))
	wantEvents(t, sink.take(), fmt.Sprintf("set %d", a))

	g := h.Global(a)
	wantEvents(t, sink.take(), "global")
	if h.Get(g) != FixnumWord(9) {
		t.Error("global holds wrong word")
	}

	inner := h.Scope()
	h.Fix(7)
	sink.take()
	inner.Close()
	wantEvents(t, sink.take(), "popto")

	s.Close()
	wantEvents(t, sink.take(), "popto 0")
}

func TestReplaySupportMethods(t *testing.T) {
	h, _ := newBumpHeap(t, 4096)

	w := h.AllocObject(TPair, 2)
	if h.LiveRefs() != 0 {
		t.Fatal("AllocObject must not push a handle")
	}
	val := FixnumWord(42)
	h.StoreField(w, 1, val)
	if h.Payload(w)[1] != val {
		t.Error("StoreField missed")
	}

	v := h.AllocObject(TVector, 4)
	h.FillFields(v, val)
	for i, got := range h.Payload(v) {
		if got != val {
			t.Errorf("FillFields slot %d = %#x", i, uint64(got))
		}
	}

	f := h.AllocObject(TFlonum, 1)
	h.StoreRaw(f, 0, math.Float64bits(2.5))
	if math.Float64frombits(uint64(h.Payload(f)[0])) != 2.5 {
		t.Error("StoreRaw missed")
	}

	r := h.RefOf(w)
	h.RefOf(v)
	h.TruncateRefs(1)
	if h.LiveRefs() != 1 || h.Get(r) != w {
		t.Error("TruncateRefs mangled the handle stack")
	}
	h.TruncateRefs(0)

	sw := h.AllocObject(TSymbol, 1)
	sr := h.AdoptSymbol(sw, "adopted")
	if h.GlobalRoots() != 1 {
		t.Errorf("GlobalRoots = %d, want 1", h.GlobalRoots())
	}
	if h.SymbolName(sr) != "adopted" {
		t.Errorf("SymbolName = %q", h.SymbolName(sr))
	}
	if h.Intern("adopted") != sr {
		t.Error("Intern does not see the adopted symbol")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("AdoptSymbol of an interned name must panic")
			}
		}()
		h.AdoptSymbol(h.AllocObject(TSymbol, 1), "adopted")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("TruncateRefs past the stack must panic")
			}
		}()
		h.TruncateRefs(99)
	}()
}
