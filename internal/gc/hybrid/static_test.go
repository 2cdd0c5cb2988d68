package hybrid

import (
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

func TestPromoteAllToStatic(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024)
	s := h.Scope()
	defer s.Close()

	list := gctest.BuildList(h, 50)
	tree := gctest.BuildTree(h, 5)
	gctest.Churn(h, 2000)

	c.PromoteAllToStatic()

	if c.young.Space().Used() != 0 {
		t.Error("nursery not empty after full collection")
	}
	if c.st.LiveStepWords() != 0 {
		t.Error("dynamic area not empty after full collection")
	}
	if c.StaticWords() == 0 {
		t.Error("nothing promoted to the static area")
	}
	if a, b := c.RemsetLens(); a != 0 || b != 0 {
		t.Errorf("remembered sets not emptied: %d, %d", a, b)
	}
	gctest.CheckList(t, h, list, 50)
	if got := gctest.CountLeaves(h, tree); got != 32 {
		t.Errorf("tree corrupted: %d leaves", got)
	}
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
}

func TestStaticObjectsNeverMove(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024)
	s := h.Scope()
	defer s.Close()

	p := h.Cons(h.Fix(1), h.Null())
	c.PromoteAllToStatic()
	addr := h.Get(p)
	if !c.inStatic[heap.PtrSpace(addr)] {
		t.Fatal("object not in static area after full collection")
	}
	gctest.Churn(h, 20000)
	c.Collect()
	if h.Get(p) != addr {
		t.Error("static object moved")
	}
}

func TestStaticToNurseryPointerIsRemembered(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024)
	s := h.Scope()
	defer s.Close()

	holder := h.Cons(h.Null(), h.Null())
	c.PromoteAllToStatic()

	// Store a nursery pointer into the static object; drop every direct
	// root so the remembered set is the only path.
	func() {
		s2 := h.Scope()
		defer s2.Close()
		young := h.Cons(h.Fix(7), h.Null())
		h.SetCar(holder, young)
	}()
	if a, _ := c.RemsetLens(); a == 0 {
		t.Fatal("barrier missed static-to-nursery store")
	}
	gctest.Churn(h, 2000) // minors promote; the referent must survive
	got := h.Car(holder)
	if !h.IsPair(got) || h.FixVal(h.Car(got)) != 7 {
		t.Error("object referenced only from the static area was lost")
	}
}

func TestStaticToDynamicPointerSurvivesNpCollection(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024)
	s := h.Scope()
	defer s.Close()

	holder := h.Cons(h.Null(), h.Null())
	c.PromoteAllToStatic()

	// Create a dynamic-area object referenced only from the static area,
	// then force a non-predictive collection.
	func() {
		s2 := h.Scope()
		defer s2.Close()
		obj := h.Cons(h.Fix(99), h.Null())
		c.Collect() // moves obj into the dynamic area
		h.SetCar(holder, obj)
	}()
	if _, b := c.RemsetLens(); b == 0 {
		t.Fatal("barrier missed static-to-dynamic store")
	}
	c.Collect()
	got := h.Car(holder)
	if !h.IsPair(got) || h.FixVal(h.Car(got)) != 99 {
		t.Error("dynamic object referenced only from the static area was lost")
	}
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
}

func TestSecondFullCollection(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024)
	s := h.Scope()
	defer s.Close()

	list := gctest.BuildList(h, 20)
	c.PromoteAllToStatic()
	more := gctest.BuildList(h, 30)
	c.PromoteAllToStatic()

	gctest.CheckList(t, h, list, 20)
	gctest.CheckList(t, h, more, 30)
	if len(c.statics) != 2 {
		t.Errorf("expected 2 static spaces, have %d", len(c.statics))
	}
	// The first static space's survivors stayed put; only the second full
	// collection's victims were copied into the second space.
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
}

func TestFullCollectionWithEmptyHeap(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024)
	c.PromoteAllToStatic() // must not panic with nothing live
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
}
