package multigen

import (
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// Generations must grow geometrically: each one needs room for the
// worst-case survivors of everything younger, or promotion skips it.
func sizes() []int { return []int{1024, 2048, 4096, 16384} }

func TestStress(t *testing.T) {
	h := heap.New()
	c := New(h, sizes())
	gctest.StressCollector(t, h, c)
}

func TestStressWithCensus(t *testing.T) {
	h := heap.New(heap.WithCensus())
	c := New(h, sizes())
	gctest.StressCollector(t, h, c)
}

func TestStressTwoGens(t *testing.T) {
	h := heap.New()
	c := New(h, []int{1024, 16384})
	gctest.StressCollector(t, h, c)
}

func TestStressSSB(t *testing.T) {
	h := heap.New()
	c := New(h, sizes(), WithRemset(remset.NewSSB()))
	gctest.StressCollector(t, h, c)
}

func TestObjectsAgeThroughGenerations(t *testing.T) {
	h := heap.New(heap.WithConfig(heap.Config{})) // asserts wholesale promotion
	c := New(h, []int{512, 1024, 2048, 8192}, WithExpansion(2))
	s := h.Scope()
	defer s.Close()

	obj := h.Cons(h.Fix(77), h.Null())
	if g := c.genIdx(h.Get(obj)); g != 0 {
		t.Fatalf("fresh object in generation %d", g)
	}
	// Grow live data (so promotions actually fill the intermediate
	// generations) while watching the object climb the pipeline. Its
	// generation must ascend monotonically through an intermediate stage.
	gens := map[int]bool{}
	prev := 0
	acc := h.Null()
	for i := 0; i < 4000; i++ {
		acc = h.Cons(h.Fix(int64(i)), acc)
		gctest.Churn(h, 3)
		g := c.genIdx(h.Get(obj))
		gens[g] = true
		if g < prev {
			t.Fatalf("object demoted from generation %d to %d", prev, g)
		}
		prev = g
	}
	if !gens[1] && !gens[2] {
		t.Errorf("object never seen in an intermediate generation: %v", gens)
	}
	if g := c.genIdx(h.Get(obj)); g < 1 {
		t.Errorf("long-lived object still in the nursery")
	}
	if got := h.FixVal(h.Car(obj)); got != 77 {
		t.Errorf("object corrupted: %d", got)
	}
}

func TestOlderToYoungerPointerIsRemembered(t *testing.T) {
	h := heap.New()
	c := New(h, []int{512, 1024, 8192})
	s := h.Scope()
	defer s.Close()

	holder := h.Cons(h.Null(), h.Null())
	c.Collect() // holder now in the old generation
	if g := c.genIdx(h.Get(holder)); g != len(c.gens)-1 {
		t.Fatalf("holder in generation %d after major", g)
	}
	func() {
		s2 := h.Scope()
		defer s2.Close()
		young := h.Cons(h.Fix(5), h.Null())
		h.SetCar(holder, young)
	}()
	if c.RemsetLen() == 0 {
		t.Fatal("barrier missed old-to-young store")
	}
	gctest.Churn(h, 3000)
	got := h.Car(holder)
	if !h.IsPair(got) || h.FixVal(h.Car(got)) != 5 {
		t.Error("young object referenced only from the old generation was lost")
	}
}

func TestRemsetRefilterDropsStaleEntries(t *testing.T) {
	// §8.4's refinement: once a remembered object's referent has been
	// promoted alongside it, rescanning removes the entry.
	h := heap.New(heap.WithConfig(heap.Config{})) // asserts wholesale promotion
	c := New(h, []int{512, 8192})
	s := h.Scope()
	defer s.Close()

	holder := h.Cons(h.Null(), h.Null())
	c.Collect()
	young := h.Cons(h.Fix(1), h.Null())
	h.SetCar(holder, young)
	if c.RemsetLen() != 1 {
		t.Fatalf("remset = %d, want 1", c.RemsetLen())
	}
	// A minor collection promotes `young` into the same generation as
	// holder; the refilter must drop the entry.
	c.collectNursery()
	if c.RemsetLen() != 0 {
		t.Errorf("remset = %d after refilter, want 0", c.RemsetLen())
	}
	if got := h.FixVal(h.Car(h.Car(holder))); got != 1 {
		t.Errorf("structure corrupted: %d", got)
	}
}

func TestLargeObjectGoesOld(t *testing.T) {
	h := heap.New()
	c := New(h, []int{256, 256, 8192})
	s := h.Scope()
	defer s.Close()
	v := h.MakeVector(500, h.Null())
	if g := c.genIdx(h.Get(v)); g != len(c.gens)-1 {
		t.Errorf("large object in generation %d", g)
	}
}

func TestExpansion(t *testing.T) {
	h := heap.New()
	c := New(h, []int{512, 512, 1024}, WithExpansion(2))
	s := h.Scope()
	defer s.Close()
	list := gctest.BuildList(h, 2000)
	gctest.CheckList(t, h, list, 2000)
	if c.gens[len(c.gens)-1].Cap() <= 1024 {
		t.Error("old generation did not grow")
	}
}

func TestHeapCheckAfterChurn(t *testing.T) {
	h := heap.New()
	c := New(h, sizes())
	s := h.Scope()
	defer s.Close()
	keep := gctest.BuildList(h, 100)
	gctest.Churn(h, 20000)
	c.Collect()
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
	gctest.CheckList(t, h, keep, 100)
}
