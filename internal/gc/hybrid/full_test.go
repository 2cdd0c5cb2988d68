package hybrid

import (
	"testing"

	"rdgc/internal/core"
	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

// fillOldRegionThenYoung fills the six old-region steps of a FixedJ(2)
// collector with 8 steps of 1024 words with unreachable 301-word vectors
// (three per step), so the next large allocation descends into young
// position 1, which the next non-predictive collection does not collect. It
// returns that allocation, made in the caller's scope.
func fillOldRegionThenYoung(t *testing.T, h *heap.Heap, c *Collector) heap.Ref {
	t.Helper()
	for i := 0; i < 18; i++ {
		func() {
			sc := h.Scope()
			defer sc.Close()
			h.MakeVector(300, h.Null())
		}()
	}
	vec := h.MakeVector(300, h.Null())
	if pos := c.st.PosOf(h.Get(vec)); pos != 1 {
		t.Fatalf("probe vector landed at step position %d, want 1 (young)", pos)
	}
	return vec
}

func TestFullCollectionWithEmptyHeap(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024)
	c.FullCollect() // must not panic with nothing live
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
	if c.Live() != 0 {
		t.Errorf("%d words live after a full collection of an empty heap", c.Live())
	}
}

// TestFullCollectEmptiesNurseryAndSetA: a full collection promotes every
// nursery survivor, so set A (pointers into the nursery) ends empty, and
// the data structures built across many promoting collections survive.
func TestFullCollectEmptiesNurseryAndSetA(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024)
	s := h.Scope()
	defer s.Close()

	list := gctest.BuildList(h, 50)
	tree := gctest.BuildTree(h, 5)
	gctest.Churn(h, 2000)

	c.FullCollect()

	if c.young.Space().Used() != 0 {
		t.Error("nursery not empty after full collection")
	}
	if a, _ := c.RemsetLens(); a != 0 {
		t.Errorf("remembered set A holds %d entries after full collection", a)
	}
	gctest.CheckList(t, h, list, 50)
	if got := gctest.CountLeaves(h, tree); got != 32 {
		t.Errorf("tree corrupted: %d leaves", got)
	}
	if err := heap.VerifyCollector(h, c); err != nil {
		t.Fatal(err)
	}
}

func TestSecondFullCollection(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024)
	s := h.Scope()
	defer s.Close()

	list := gctest.BuildList(h, 20)
	c.FullCollect()
	more := gctest.BuildList(h, 30)
	c.FullCollect()

	gctest.CheckList(t, h, list, 20)
	gctest.CheckList(t, h, more, 30)
	if err := heap.VerifyCollector(h, c); err != nil {
		t.Fatal(err)
	}
}

// TestFullCollectReclaimsYoungStepGarbage: garbage in steps 1..j outlives a
// non-predictive collection, and a full collection reclaims it at once.
func TestFullCollectReclaimsYoungStepGarbage(t *testing.T) {
	for _, full := range []bool{false, true} {
		h := heap.New(heap.WithConfig(heap.Config{}))
		c := New(h, 512, 8, 1024, WithGrowth(), WithPolicy(core.FixedJ(2)))
		func() {
			sc := h.Scope()
			defer sc.Close()
			fillOldRegionThenYoung(t, h, c)
		}()
		if full {
			c.FullCollect()
			if got := c.st.LiveStepWords(); got != 0 {
				t.Errorf("%d words left in the steps after a full collection of garbage", got)
			}
		} else {
			c.Collect()
			if got := c.st.LiveStepWords(); got < 301 {
				t.Errorf("non-predictive collection reclaimed the young-step vector (%d words left)", got)
			}
		}
	}
}

// TestFullCollectKeepsYoungStepSurvivors: a live young-step object whose
// fields point into the old region and into the nursery survives a full
// collection with both referents, and the remembered sets rebuilt after it
// cover every pointer the barrier would have recorded.
func TestFullCollectKeepsYoungStepSurvivors(t *testing.T) {
	h := heap.New(heap.WithConfig(heap.Config{}))
	c := New(h, 512, 8, 1024, WithGrowth(), WithPolicy(core.FixedJ(2)))
	s := h.Scope()
	defer s.Close()

	old := h.Cons(h.Fix(11), h.Null())
	c.Collect() // old lands in the old region
	vec := fillOldRegionThenYoung(t, h, c)
	h.VectorSet(vec, 0, old)
	func() {
		sc := h.Scope()
		defer sc.Close()
		h.VectorSet(vec, 1, h.Cons(h.Fix(22), h.Null()))
	}()

	c.FullCollect()

	if e := h.VectorRef(vec, 0); !h.IsPair(e) || h.FixVal(h.Car(e)) != 11 {
		t.Error("old-region referent of a young-step object was lost")
	}
	if e := h.VectorRef(vec, 1); !h.IsPair(e) || h.FixVal(h.Car(e)) != 22 {
		t.Error("nursery referent of a young-step object was lost")
	}
	if err := heap.VerifyCollector(h, c); err != nil {
		t.Fatal(err)
	}
}

// TestFullCollectRestoresPolicyJ: j is 0 for the one full collection only;
// afterwards the policy chooses it again, and the collection counts as a
// single major collection.
func TestFullCollectRestoresPolicyJ(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024, WithPolicy(core.FixedJ(2)))
	s := h.Scope()
	defer s.Close()
	gctest.BuildList(h, 20)

	before := *c.GCStats()
	c.FullCollect()
	if c.st.J() != 2 {
		t.Errorf("j = %d after a full collection, want the policy's 2", c.st.J())
	}
	after := c.GCStats()
	if after.Collections != before.Collections+1 || after.MajorCollections != before.MajorCollections+1 {
		t.Errorf("collections %d -> %d, majors %d -> %d; want one more of each",
			before.Collections, after.Collections, before.MajorCollections, after.MajorCollections)
	}
}
