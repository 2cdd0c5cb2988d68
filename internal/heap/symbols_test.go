package heap

import "testing"

// movingAlloc wraps two spaces and a trivial copying collection, to test
// that interning survives object motion.
type movingAlloc struct {
	h        *Heap
	from, to *Space
}

func (a *movingAlloc) AllocRaw(t Type, payload int) Word {
	total := 1 + payload + a.h.ExtraWords()
	off, ok := a.from.Bump(total)
	if !ok {
		panic("movingAlloc: full")
	}
	return a.h.InitObject(a.from, off, t, payload)
}

func (a *movingAlloc) flip() {
	e := NewEvacuator(a.h, nil, a.to)
	e.SetFrom(a.from)
	e.Run()
	a.from.Reset()
	a.from, a.to = a.to, a.from
}

func TestInternSurvivesObjectMotion(t *testing.T) {
	h := New()
	a := &movingAlloc{h: h, from: h.NewSpace("A", 4096), to: h.NewSpace("B", 4096)}
	h.SetAllocator(a)

	s := h.Scope()
	defer s.Close()
	x1 := h.Intern("rewrite")
	before := h.Get(x1)
	a.flip() // the symbol object moves

	x2 := h.Intern("rewrite")
	if !h.Eq(x1, x2) {
		t.Error("interning broke across a copying collection")
	}
	if h.Get(x1) == before {
		t.Error("symbol did not actually move; test is vacuous")
	}
	if got := h.SymbolName(x2); got != "rewrite" {
		t.Errorf("SymbolName = %q", got)
	}
	// A structure built around the symbol keeps identity too.
	p := h.Cons(x1, h.Null())
	a.flip()
	if !h.Eq(h.Car(p), h.Intern("rewrite")) {
		t.Error("symbol identity in structure broke across motion")
	}
}
