package core

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

func TestStressFixedJ(t *testing.T) {
	h := heap.New()
	c := New(h, 8, 2048, WithPolicy(FixedJ(2)))
	gctest.StressCollector(t, h, c)
}

func TestStressZeroJ(t *testing.T) {
	h := heap.New()
	c := New(h, 4, 4096, WithPolicy(ZeroJ{}))
	gctest.StressCollector(t, h, c)
}

func TestStressSSB(t *testing.T) {
	h := heap.New()
	c := New(h, 8, 2048, WithRemset(remset.NewSSB()))
	gctest.StressCollector(t, h, c)
}

func TestAllocationFillsStepsDownward(t *testing.T) {
	h := heap.New()
	c := New(h, 4, 256)
	s := h.Scope()
	defer s.Close()

	p := h.Cons(h.Fix(1), h.Null())
	if pos := c.Steps().PosOf(h.Get(p)); pos != 3 {
		t.Errorf("first allocation went to step position %d, want 3 (step k)", pos)
	}
	// Fill step k; the next allocation must land in step k-1.
	for c.Steps().Step(3).Free() >= 3 {
		h.Cons(h.Fix(0), h.Null())
	}
	q := h.Cons(h.Fix(2), h.Null())
	if pos := c.Steps().PosOf(h.Get(q)); pos != 2 {
		t.Errorf("allocation after step k filled went to position %d, want 2", pos)
	}
}

func TestRenamingRotatesSteps(t *testing.T) {
	h := heap.New()
	c := New(h, 4, 512, WithPolicy(FixedJ(1)))
	s := h.Scope()
	defer s.Close()

	// Allocate until just before the steps fill, keeping one young object.
	young := h.Cons(h.Fix(7), h.Null())
	_ = young
	gctest.Churn(h, 2000) // triggers at least one collection

	if got := c.GCStats().MajorCollections; got == 0 {
		t.Fatal("no collection happened")
	}
	// Young object must have survived either by being in steps 1..j
	// (renamed, not copied) or by being copied as a survivor.
	if v := h.FixVal(h.Car(young)); v != 7 {
		t.Errorf("young object corrupted: %d", v)
	}
}

func TestUncollectedYoungStepsAreExchangedNotCopied(t *testing.T) {
	h := heap.New()
	c := New(h, 4, 512, WithPolicy(FixedJ(1)))
	s := h.Scope()
	defer s.Close()

	// Fill steps 4,3,2 with garbage, then allocate a live object that lands
	// in step 1 (position 0); trigger collection and verify the object was
	// renamed (same space, same address), not copied.
	var probe heap.Ref
	for {
		s2 := h.Scope()
		p := h.Cons(h.Fix(9), h.Null())
		if c.Steps().PosOf(h.Get(p)) == 0 {
			probe = s2.Return(p)
			break
		}
		s2.Close()
	}
	before := h.Get(probe)
	// Fill the rest of step 1 to force a collection.
	gctest.Churn(h, 600)
	if c.GCStats().MajorCollections == 0 {
		t.Fatal("expected a collection")
	}
	after := h.Get(probe)
	if before != after {
		t.Error("object in steps 1..j was copied; it should only be renamed")
	}
	// And its step must now be among the oldest (position >= k-j).
	if pos := c.Steps().PosOf(after); pos < c.Steps().K()-1 {
		t.Errorf("renamed young step at position %d, want %d", pos, c.Steps().K()-1)
	}
}

// youngHolderOfOld makes an old object (position k-1) holding 123, then a
// young holder (position < j) pointing at it — a remembered young-to-old
// pointer — and drops every direct handle to the old object, so the holder
// is the only path to it.
func youngHolderOfOld(t *testing.T, h *heap.Heap, c *Collector) heap.Ref {
	t.Helper()
	old := h.Cons(h.Fix(123), h.Null())
	if c.Steps().PosOf(h.Get(old)) != c.Steps().K()-1 {
		t.Fatal("setup: object not in oldest step")
	}
	var holder heap.Ref
	for {
		s2 := h.Scope()
		p := h.Cons(h.Null(), h.Null())
		if pos := c.Steps().PosOf(h.Get(p)); pos >= 0 && pos < c.J() {
			holder = s2.Return(p)
			break
		}
		s2.Close()
	}
	h.SetCar(holder, old)
	if c.RemsetLen() == 0 {
		t.Fatal("barrier missed young-to-old store")
	}
	h.Set(old, heap.NullWord) // drop the direct root
	return holder
}

func TestRemsetPreservesYoungToOldOnlyPath(t *testing.T) {
	h := heap.New()
	c := New(h, 6, 512, WithPolicy(FixedJ(2)))
	s := h.Scope()
	defer s.Close()

	holder := youngHolderOfOld(t, h, c)

	c.Collect() // collects steps j+1..k; holder's step is only renamed
	got := h.Car(holder)
	if !h.IsPair(got) || h.FixVal(h.Car(got)) != 123 {
		t.Error("old object reachable only through a young step was lost")
	}
}

// TestFullCollectSkipsRememberedEntriesItCollects is the regression test for
// the remembered-set root scan reading a forwarding pointer as a header: a
// rooted, remembered young-step object is evacuated with the roots, and
// FullCollect's j = 0 makes its old address from-space by the time the
// remembered set is scanned (an index out of range in heap.ScanObject).
func TestFullCollectSkipsRememberedEntriesItCollects(t *testing.T) {
	h := heap.New()
	c := New(h, 6, 512, WithPolicy(FixedJ(2)))
	s := h.Scope()
	defer s.Close()

	holder := youngHolderOfOld(t, h, c)

	scanned := c.GCStats().RemsetScanned
	c.FullCollect()
	if got := h.Car(holder); !h.IsPair(got) || h.FixVal(h.Car(got)) != 123 {
		t.Error("object reachable only through a collected remembered entry was lost")
	}
	if n := c.GCStats().RemsetScanned - scanned; n != 0 {
		t.Errorf("a full collection scanned %d remembered entries as roots; every entry is inside the collected region", n)
	}
	if err := heap.VerifyCollector(h, c); err != nil {
		t.Error(err)
	}
}

func TestCycleWithinCollectedRegionIsReclaimed(t *testing.T) {
	h := heap.New()
	c := New(h, 4, 1024)
	s := h.Scope()

	a := h.Cons(h.Fix(1), h.Null())
	b := h.Cons(h.Fix(2), h.Null())
	h.SetCdr(a, b)
	h.SetCdr(b, a)
	s.Close() // cycle now unreachable

	liveBefore := c.Live()
	c.FullCollect()
	if live := c.Live(); live >= liveBefore {
		t.Errorf("cyclic garbage not reclaimed: live %d -> %d", liveBefore, live)
	}
}

func TestRecommendedPolicyKeepsYoungStepsEmpty(t *testing.T) {
	h := heap.New()
	c := New(h, 8, 512)
	s := h.Scope()
	defer s.Close()
	keep := gctest.BuildList(h, 30)
	gctest.Churn(h, 5000)
	gctest.CheckList(t, h, keep, 30)

	// Immediately after any collection under the recommended policy,
	// steps 1..j are empty; between collections they may be filling, but j
	// never exceeds k/2.
	if j := c.J(); j > c.Steps().K()/2 {
		t.Errorf("j = %d exceeds k/2 = %d", j, c.Steps().K()/2)
	}
	c.Collect()
	for p := 0; p < c.J(); p++ {
		if c.Steps().Step(p).Used() != 0 {
			t.Errorf("step position %d not empty right after collection", p)
		}
	}
	if c.RemsetLen() != 0 {
		t.Errorf("remset = %d right after collection under recommended policy, want 0", c.RemsetLen())
	}
}

func TestGrowth(t *testing.T) {
	h := heap.New()
	c := New(h, 4, 512, WithGrowth())
	s := h.Scope()
	defer s.Close()
	list := gctest.BuildList(h, 2000) // 6000 words live > 2048 capacity
	gctest.CheckList(t, h, list, 2000)
	if c.Steps().K() <= 4 {
		t.Errorf("step count did not grow: k = %d", c.Steps().K())
	}
}

// TestGrowthRungAfterFragmentedCollection reaches AllocRaw's growth rung:
// three live 51-word vectors in three 100-word steps leave 49 words in
// each after a whole-heap collection. That is over the third of the heap
// the collection's own growth keeps free, but a fourth vector fits no
// step, so the allocation must add one.
func TestGrowthRungAfterFragmentedCollection(t *testing.T) {
	h := heap.New()
	c := New(h, 3, 100, WithGrowth(), WithPolicy(ZeroJ{}))
	s := h.Scope()
	defer s.Close()
	for i := range 3 {
		h.MakeVector(50, h.Fix(int64(i)))
	}
	collections := c.GCStats().Collections
	v := h.MakeVector(50, h.Fix(3))
	if got := c.GCStats().Collections - collections; got != 1 {
		t.Fatalf("the fourth vector ran %d collections, want 1", got)
	}
	if k := c.Steps().K(); k != 4 {
		t.Fatalf("k = %d after the fourth vector, want 4: one step added by the rung", k)
	}
	if pos := c.Steps().PosOf(h.Get(v)); pos != 0 {
		t.Errorf("the fourth vector landed at position %d, want the added step 0", pos)
	}
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
}

func TestOOMPanicsWithoutGrowth(t *testing.T) {
	h := heap.New()
	New(h, 4, 256)
	s := h.Scope()
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Error("exceeding a fixed step heap did not panic")
		}
	}()
	gctest.BuildList(h, 2000)
}

func TestJPolicies(t *testing.T) {
	cases := []struct {
		p     JPolicy
		empty int
		k     int
		want  int
	}{
		{Recommended{}, 6, 8, 3},
		{Recommended{}, 8, 8, 4}, // capped at k/2
		{Recommended{}, 0, 8, 0}, // nothing empty
		{Recommended{}, 1, 8, 0}, // floor
		{FixedJ(3), 0, 8, 3},     // ignores emptiness
		{FixedJ(10), 0, 4, 3},    // clamped to k-1
		{FixedJ(-2), 0, 4, 0},    // clamped to 0
		{ZeroJ{}, 5, 8, 0},
		{FractionJ(0.25), 8, 8, 2},
		{FractionJ(0.5), 2, 8, 2}, // limited by empty steps
		{FractionJ(0.9), 8, 8, 7}, // clamped to k-1
	}
	for _, tc := range cases {
		if got := tc.p.ChooseJ(tc.empty, tc.k); got != tc.want {
			t.Errorf("%s.ChooseJ(%d, %d) = %d, want %d", tc.p.Name(), tc.empty, tc.k, got, tc.want)
		}
	}
}

func TestMarkConsUnderPinnedLive(t *testing.T) {
	// With a fixed live set, the non-predictive collector's mark/cons ratio
	// must stay well below the non-generational 1/(L-1) bound because each
	// collection skips the youngest (fullest-of-live) steps... in this
	// degenerate workload everything live is old, so it approaches copying
	// the same pinned list each cycle. Sanity-check it stays finite and the
	// structure survives.
	h := heap.New()
	c := New(h, 8, 1024)
	s := h.Scope()
	defer s.Close()
	keep := gctest.BuildList(h, 100)
	gctest.Churn(h, 20000)
	gctest.CheckList(t, h, keep, 100)
	mc := c.GCStats().MarkCons(&h.Stats)
	if mc <= 0 || mc > 2 {
		t.Errorf("mark/cons = %.3f out of sane range", mc)
	}
}
