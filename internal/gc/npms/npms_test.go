package npms

import (
	"runtime"
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
	if c.st.PosOf(h.Get(old)) < c.J() {
		t.Fatal("setup: first allocation not in an old step")
	}
	// Steer a holder into the young steps.
	var holder heap.Ref
	for {
		s2 := h.Scope()
		p := h.Cons(h.Null(), h.Null())
		if pos := c.st.PosOf(h.Get(p)); pos >= 0 && pos < c.J() {
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

// TestAllocRawDoesNotAllocate: between collections the allocation path — one
// free head per step, the step machine's position table and descending cursor
// — runs without touching the Go heap, in both modes. The window starts on a
// freshly collected heap and is shorter than one step, so no collection falls
// inside it; TestCollectionsAllocateNothing measures those.
func TestAllocRawDoesNotAllocate(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		h := heap.New(heap.WithConfig(heap.Config{Incremental: incremental}))
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

// TestCollectionsAllocateNothing: a steady-state collection runs on the step
// machine's reusable buffers and the visitors bound once in New, whichever
// kind it is — stop-the-world mark/sweep, stop-the-world compaction, or the
// incremental cycle from its first slice to its termination. Each measured
// run allocates until one collection has been counted, keeping in a rooted
// table every sixteenth pair and, between those, a pair that points at one
// kept a quarter of the table earlier — survivors, and pointers from the
// steps filled last (1..j) into older ones for the remembered set to hold.
func TestCollectionsAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name         string
		incremental  bool
		compactEvery int
	}{
		{"mark-sweep", false, 0},
		{"compacting", false, 1},
		{"incremental", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := heap.New(heap.WithConfig(heap.Config{Incremental: tc.incremental}))
			c := New(h, 8, 2048, WithCompactEvery(tc.compactEvery))
			const slots = 256
			table := h.Global(h.MakeVector(slots, h.Null()))
			n := 0
			cycle := func() {
				for before := c.stats.Collections; c.stats.Collections == before; n++ {
					s := h.Scope()
					switch i := n / 16 % (slots / 2); n % 16 {
					case 0:
						h.VectorSet(table, 2*i, h.Cons(h.Fix(int64(n)), h.Null()))
					case 8:
						older := h.VectorRef(table, 2*((i+slots/8)%(slots/2)))
						h.VectorSet(table, 2*i+1, h.Cons(older, h.Null()))
					default:
						h.Cons(h.Fix(int64(n)), h.Null())
					}
					s.Close()
				}
				if tc.incremental && c.phase != npSweeping {
					t.Fatal("the collection was a stop-the-world fallback, not a termination")
				}
			}
			for i := 0; i < 20; i++ {
				cycle() // warm-up: the remembered set, mark stack and histograms size themselves
			}
			before := c.stats
			if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
				t.Errorf("a steady-state collection allocates %.0f Go objects, want 0", allocs)
			}
			if got := c.stats.Collections - before.Collections; got != 21 {
				t.Fatalf("measured %d collections, want 21", got)
			}
			if copied := c.stats.WordsCopied != before.WordsCopied; copied != (tc.compactEvery == 1) {
				t.Fatalf("words copied in the window: %v", copied)
			}
			if c.stats.RemsetScanned == before.RemsetScanned {
				t.Fatal("no remembered entry was scanned; the guard must measure collections that rebuild the set")
			}
			if err := heap.VerifyCollector(h, c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNewReservesShadows is the construction-bytes guard: New allocates the
// memory of no step and no shadow — every one is a reservation until the
// allocation cursor reaches a step or a compaction first evacuates into a
// shadow — and the first allocation gives memory to step k, where the
// cursor starts, and to nothing else. A step or shadow made with memory
// again would add a whole arena to what New allocates.
func TestNewReservesShadows(t *testing.T) {
	const k, stepWords = 8, 1 << 16
	h := heap.New(heap.WithConfig(heap.Config{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(h, k, stepWords)
	runtime.ReadMemStats(&after)
	step := uint64(stepWords * 8) // one step's arena, in bytes
	if got := after.TotalAlloc - before.TotalAlloc; got >= step/4 {
		t.Errorf("New allocated %d bytes; a step's or shadow's arena is %d", got, step)
	}
	for _, s := range h.Spaces {
		if !s.Reserved() {
			t.Errorf("%v has memory after New", s)
		}
	}
	c.AllocRaw(heap.TPair, 2)
	for _, s := range h.Spaces {
		if cursor := s == c.st.Step(k-1); s.Reserved() == cursor {
			t.Errorf("%v after the first allocation: reserved %v, and the cursor is on it: %v", s, s.Reserved(), cursor)
		}
	}
}
