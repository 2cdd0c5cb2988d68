package npms

import (
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

func TestStress(t *testing.T) {
	h := heap.New()
	c := New(h, 8, 2048)
	gctest.StressCollector(t, h, c)
}

func TestStressWithCensus(t *testing.T) {
	h := heap.New(heap.WithCensus())
	c := New(h, 8, 2048)
	gctest.StressCollector(t, h, c)
}

func TestStressNoCompaction(t *testing.T) {
	h := heap.New()
	c := New(h, 8, 2048, WithCompactEvery(0))
	gctest.StressCollector(t, h, c)
}

func TestStressFrequentCompaction(t *testing.T) {
	h := heap.New()
	c := New(h, 8, 2048, WithCompactEvery(2))
	gctest.StressCollector(t, h, c)
}

func TestStressSSB(t *testing.T) {
	h := heap.New()
	c := New(h, 8, 2048, WithRemset(remset.NewSSB()))
	gctest.StressCollector(t, h, c)
}

func TestObjectsStayPutWithoutCompaction(t *testing.T) {
	h := heap.New()
	c := New(h, 6, 1024, WithCompactEvery(0))
	s := h.Scope()
	defer s.Close()
	p := h.Cons(h.Fix(7), h.Null())
	before := h.Get(p)
	gctest.Churn(h, 10000)
	if c.GCStats().MajorCollections == 0 {
		t.Fatal("no collections happened")
	}
	if h.Get(p) != before {
		t.Error("mark/sweep non-predictive collection moved an object")
	}
	if got := h.FixVal(h.Car(p)); got != 7 {
		t.Errorf("object corrupted: %d", got)
	}
}

func TestCompactionDefeatsFragmentation(t *testing.T) {
	h := heap.New()
	c := New(h, 4, 4096, WithCompactEvery(0))
	s := h.Scope()

	// Fill most of the heap with pairs, then drop every other one: every
	// free block is a 3-word hole, so a large vector is unallocatable
	// until the immediate-compaction fallback in AllocRaw rescues it.
	var keep []heap.Ref
	for c.Live() < 15800 {
		keep = append(keep, h.Cons(h.Fix(int64(len(keep))), h.Null()))
	}
	for i, r := range keep {
		if i%2 == 0 {
			h.Set(r, heap.NullWord)
		}
	}
	v := h.MakeVector(1500, h.Null())
	if h.VectorLen(v) != 1500 {
		t.Fatal("large allocation failed despite compaction")
	}
	if c.GCStats().WordsCopied == 0 {
		t.Error("no compaction work recorded")
	}
	for i, r := range keep {
		if i%2 == 1 {
			if got := h.FixVal(h.Car(r)); got != int64(i) {
				t.Errorf("survivor %d corrupted: %d", i, got)
			}
		}
	}
	s.Close()
}

func TestRemsetPreservesYoungToOldOnlyPath(t *testing.T) {
	h := heap.New()
	c := New(h, 8, 1024, WithG(0.25), WithCompactEvery(0))
	s := h.Scope()
	defer s.Close()

	old := h.Cons(h.Fix(55), h.Null())
	if c.posOf(h.Get(old)) < c.J() {
		t.Fatal("setup: first allocation not in an old step")
	}
	// Steer a holder into the young steps.
	var holder heap.Ref
	for {
		s2 := h.Scope()
		p := h.Cons(h.Null(), h.Null())
		if pos := c.posOf(h.Get(p)); pos >= 0 && pos < c.J() {
			holder = s2.Return(p)
			break
		}
		s2.Close()
		if c.GCStats().Collections > 0 {
			t.Skip("collection happened before reaching the young steps")
		}
	}
	h.SetCar(holder, old)
	if c.RemsetLen() == 0 {
		t.Fatal("barrier missed the young-to-old store")
	}
	h.Set(old, heap.NullWord)
	c.Collect()
	got := h.Car(holder)
	if !h.IsPair(got) || h.FixVal(h.Car(got)) != 55 {
		t.Error("old object reachable only from a young step was lost")
	}
}

func TestCycleReclamation(t *testing.T) {
	h := heap.New()
	c := New(h, 4, 1024)
	s := h.Scope()
	a := h.Cons(h.Fix(1), h.Null())
	b := h.Cons(h.Fix(2), h.Null())
	h.SetCdr(a, b)
	h.SetCdr(b, a)
	s.Close()

	before := c.Live()
	// With g>0 a cycle may straddle the j boundary; a couple of
	// collections rotate everything through the collected region.
	c.Collect()
	c.Collect()
	if live := c.Live(); live >= before {
		t.Errorf("cyclic garbage not reclaimed: %d -> %d", before, live)
	}
}

func TestMarkConsComparableToCopyingVariant(t *testing.T) {
	// Under a pinned live set the mark/sweep variant's mark/cons ratio
	// should be in the same regime as the copying non-predictive
	// collector's — the algorithms differ in mechanism, not policy.
	h := heap.New()
	c := New(h, 16, 2048, WithG(0.25))
	s := h.Scope()
	defer s.Close()
	keep := gctest.BuildList(h, 500)
	gctest.Churn(h, 60000)
	gctest.CheckList(t, h, keep, 500)
	mcRatio := c.GCStats().MarkCons(&h.Stats)
	if mcRatio <= 0 || mcRatio > 1.0 {
		t.Errorf("mark/cons = %.3f out of plausible range", mcRatio)
	}
}

// TestAllocRawDoesNotAllocate: between collections the allocation path —
// free heads and positions indexed by SpaceID, the descending step cursor —
// runs without touching the Go heap, in both modes. The window starts on a
// freshly collected heap and is shorter than one step, so no collection (and
// no incremental cycle, which allocates its rename buffers) falls inside it.
func TestAllocRawDoesNotAllocate(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		h := gctest.NewHeap(func(c *heap.Config) { c.Incremental = incremental })
		c := New(h, 8, 16384)
		gctest.Churn(h, 200000)
		c.Collect()
		collections := c.stats.Collections
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < 100; i++ {
				c.AllocRaw(heap.TPair, 2)
			}
		})
		if allocs != 0 {
			t.Errorf("incremental=%v: AllocRaw allocates %.1f Go objects per 100 calls", incremental, allocs)
		}
		if c.stats.Collections != collections {
			t.Errorf("incremental=%v: a collection ran inside the measured window", incremental)
		}
	}
}
