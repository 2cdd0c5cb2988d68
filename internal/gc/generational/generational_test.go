package generational

import (
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

func TestStress(t *testing.T) {
	h := heap.New()
	c := New(h, 1024, 16384)
	gctest.StressCollector(t, h, c)
}

func TestStressWithCensus(t *testing.T) {
	h := heap.New(heap.WithCensus())
	c := New(h, 1024, 16384)
	gctest.StressCollector(t, h, c)
}

func TestStressSSB(t *testing.T) {
	h := heap.New()
	c := New(h, 1024, 16384, WithRemset(remset.NewSSB()))
	gctest.StressCollector(t, h, c)
}

func TestMinorPromotesAllSurvivors(t *testing.T) {
	h := heap.New(heap.WithConfig(heap.Config{})) // asserts wholesale promotion
	c := New(h, 512, 8192)
	s := h.Scope()
	defer s.Close()

	list := gctest.BuildList(h, 20)
	gctest.Churn(h, 2000) // forces minor collections
	gctest.CheckList(t, h, list, 20)

	if c.GCStats().WordsPromoted == 0 {
		t.Error("no words were promoted by minor collections")
	}
	// After churn, the survivors must reside in the old generation.
	if w := h.Get(list); heap.PtrSpace(w) == c.young.Space().ID {
		t.Error("survivor still in nursery after minor collections")
	}
}

func TestRemsetCatchesOldToYoungPointer(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8192)
	s := h.Scope()
	defer s.Close()

	// Create an old object by promoting it.
	oldObj := h.Cons(h.Fix(1), h.Null())
	c.Collect()
	if heap.PtrSpace(h.Get(oldObj)) == c.young.Space().ID {
		t.Fatal("object not promoted by major collection")
	}

	// Store a young pointer into it; drop our direct handle to the young
	// object so the remembered set is the only path that keeps it alive
	// through the next minor collection.
	func() {
		s2 := h.Scope()
		defer s2.Close()
		young := h.Cons(h.Fix(42), h.Null())
		h.SetCar(oldObj, young)
	}()
	if c.RemsetLen() == 0 {
		t.Fatal("write barrier did not record the old-to-young store")
	}

	gctest.Churn(h, 2000) // minor collections happen
	got := h.Car(oldObj)
	if !h.IsPair(got) {
		t.Fatal("young object referenced only from old generation was lost")
	}
	if v := h.FixVal(h.Car(got)); v != 42 {
		t.Errorf("young object corrupted: %d", v)
	}
}

func TestBarrierIgnoresYoungToYoung(t *testing.T) {
	h := heap.New()
	c := New(h, 2048, 8192)
	s := h.Scope()
	defer s.Close()
	a := h.Cons(h.Fix(1), h.Null())
	b := h.Cons(h.Fix(2), h.Null())
	h.SetCar(a, b) // both in nursery
	if c.RemsetLen() != 0 {
		t.Errorf("remset = %d entries after young-to-young store, want 0", c.RemsetLen())
	}
}

func TestLargeObjectGoesToOldArea(t *testing.T) {
	h := heap.New()
	c := New(h, 256, 8192)
	s := h.Scope()
	defer s.Close()
	v := h.MakeVector(1000, h.Null())
	if heap.PtrSpace(h.Get(v)) == c.young.Space().ID {
		t.Error("large object was allocated in the nursery")
	}
	if h.VectorLen(v) != 1000 {
		t.Error("large vector corrupt")
	}
}

func TestExpansion(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 1024, WithExpansion(2))
	s := h.Scope()
	defer s.Close()
	list := gctest.BuildList(h, 2000) // 6000 words live, far beyond 1024
	gctest.CheckList(t, h, list, 2000)
	if c.OldWords() <= 1024 {
		t.Errorf("old area did not grow: %d words", c.OldWords())
	}
}

func TestMajorResetsRemset(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8192)
	s := h.Scope()
	defer s.Close()
	oldObj := h.Cons(h.Fix(1), h.Null())
	c.Collect()
	young := h.Cons(h.Fix(2), h.Null())
	h.SetCar(oldObj, young)
	if c.RemsetLen() == 0 {
		t.Fatal("barrier missed the store")
	}
	c.Collect()
	if c.RemsetLen() != 0 {
		t.Errorf("remset = %d after major collection, want 0", c.RemsetLen())
	}
	if v := h.FixVal(h.Car(h.Car(oldObj))); v != 2 {
		t.Errorf("structure corrupted by major collection: %d", v)
	}
}
