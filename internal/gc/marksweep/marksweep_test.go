package marksweep

import (
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

func TestStress(t *testing.T) {
	h := heap.New()
	c := New(h, 8192)
	gctest.StressCollector(t, h, c)
}

func TestStressWithCensus(t *testing.T) {
	h := heap.New(heap.WithCensus())
	c := New(h, 8192)
	gctest.StressCollector(t, h, c)
}

func TestObjectsDoNotMove(t *testing.T) {
	h := heap.New()
	c := New(h, 4096)
	s := h.Scope()
	defer s.Close()
	p := h.Cons(h.Fix(1), h.Null())
	before := h.Get(p)
	gctest.Churn(h, 10000)
	c.Collect()
	if h.Get(p) != before {
		t.Error("mark/sweep moved an object")
	}
}

func TestFreeListCoalescing(t *testing.T) {
	h := heap.New()
	c := New(h, 4096)
	s := h.Scope()

	// Fill with alternating kept/dropped pairs, then drop the scope and
	// collect: the dead blocks must coalesce enough to satisfy a large
	// vector allocation.
	for i := 0; i < 300; i++ {
		h.Cons(h.Fix(int64(i)), h.Null())
	}
	s.Close()
	c.Collect()

	s2 := h.Scope()
	defer s2.Close()
	// Below the large-object threshold: needs one contiguous run inside a
	// block, which only exists if the dead pairs coalesced.
	v := h.MakeVector(200, h.Null())
	if h.VectorLen(v) != 200 {
		t.Fatal("block-sized vector allocation failed after coalescing")
	}
	// Above the threshold: routed to the large-object space.
	big := h.MakeVector(1000, h.Null())
	if h.VectorLen(big) != 1000 {
		t.Fatal("large vector allocation failed")
	}
	if c.los.LiveObjects() != 1 {
		t.Errorf("large vector not in the large-object space (live=%d)", c.los.LiveObjects())
	}
}

func TestLargeObjectLifecycle(t *testing.T) {
	h := heap.New()
	c := New(h, 8192, WithExpansion(2))
	s := h.Scope()
	v := h.MakeVector(600, h.Fix(9)) // 601 words: large
	if got := c.los.LiveObjects(); got != 1 {
		t.Fatalf("large objects live = %d, want 1", got)
	}
	if h.FixVal(h.VectorRef(v, 599)) != 9 {
		t.Fatal("large vector contents wrong")
	}
	c.Collect() // rooted: survives in place
	if h.FixVal(h.VectorRef(v, 0)) != 9 || c.los.LiveObjects() != 1 {
		t.Fatal("large vector did not survive collection")
	}
	s.Close()
	c.Collect() // dropped: space returns to the pool
	if c.los.LiveObjects() != 0 || c.los.PooledSpaces() == 0 {
		t.Fatalf("dead large object not pooled: live=%d pool=%d",
			c.los.LiveObjects(), c.los.PooledSpaces())
	}
	s2 := h.Scope()
	defer s2.Close()
	h.MakeVector(600, h.Fix(1))
	if c.los.PooledSpaces() != 0 {
		t.Error("reallocation did not reuse the pooled space")
	}
}

func TestParsabilityInvariant(t *testing.T) {
	h := heap.New()
	c := New(h, 2048)
	s := h.Scope()
	defer s.Close()

	var keep []heap.Ref
	for i := 0; i < 50; i++ {
		keep = append(keep, h.Cons(h.Fix(int64(i)), h.Null()))
		gctest.Churn(h, 50)
	}
	c.Collect()
	// WalkSpace panics on unparsable spaces; LiveWords exercises it fully.
	if live := c.Live(); live < 50*3 {
		t.Errorf("live = %d words, want >= 150", live)
	}
	for i, r := range keep {
		if got := h.FixVal(h.Car(r)); got != int64(i) {
			t.Errorf("pair %d corrupted: %d", i, got)
		}
	}
}

func TestGrowthAddsSpaces(t *testing.T) {
	h := heap.New()
	c := New(h, 512, WithExpansion(2))
	s := h.Scope()
	defer s.Close()
	list := gctest.BuildList(h, 1000)
	gctest.CheckList(t, h, list, 1000)
	if len(c.spaces) < 2 {
		t.Errorf("expected growth to add spaces, have %d", len(c.spaces))
	}
	if got := c.HeapWords(); got < 3000 {
		t.Errorf("heap = %d words, want >= 3000", got)
	}
}

func TestOOMPanicsWithoutExpansion(t *testing.T) {
	h := heap.New()
	New(h, 128)
	s := h.Scope()
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Error("allocating past a fixed mark/sweep heap did not panic")
		}
	}()
	acc := h.Null()
	for i := 0; i < heap.BlockWords; i++ { // 3 words per pair, all live
		acc = h.Cons(h.Fix(int64(i)), acc)
	}
}

func TestMarkConsIsOneOverLMinusOne(t *testing.T) {
	// With live storage pinned at 1/L of the heap, the steady-state
	// mark/cons ratio must approach 1/(L-1) (Section 5 of the paper).
	const heapWords = 30000
	const L = 3
	h := heap.New()
	c := New(h, heapWords)
	s := h.Scope()
	defer s.Close()

	live := heapWords / L
	_ = gctest.BuildList(h, live/3) // pairs are 3 words

	start := h.Stats.WordsAllocated
	marked0 := c.GCStats().WordsMarked
	gctest.Churn(h, 100000)
	markCons := float64(c.GCStats().WordsMarked-marked0) /
		float64(h.Stats.WordsAllocated-start)

	want := 1.0 / (L - 1)
	if markCons < want*0.8 || markCons > want*1.25 {
		t.Errorf("mark/cons = %.3f, want about %.3f", markCons, want)
	}
}
