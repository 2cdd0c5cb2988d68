package hybrid

import (
	"fmt"
	"testing"

	"rdgc/internal/core"
	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

func TestStress(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024)
	gctest.StressCollector(t, h, c)
}

func TestStressWithCensus(t *testing.T) {
	h := heap.New(heap.WithCensus())
	c := New(h, 512, 8, 1024)
	gctest.StressCollector(t, h, c)
}

func TestStressFixedJ(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024, WithPolicy(core.FixedJ(2)))
	gctest.StressCollector(t, h, c)
}

func TestStressSSB(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024, WithRemsets(remset.NewSSB(), remset.NewSSB()))
	gctest.StressCollector(t, h, c)
}

func TestStressWithGrowth(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 4, 512, WithGrowth())
	gctest.StressCollector(t, h, c)
}

func TestPromotionMovesEverythingOutOfNursery(t *testing.T) {
	h := heap.New(heap.WithConfig(heap.Config{})) // asserts wholesale promotion
	c := New(h, 256, 8, 1024)
	s := h.Scope()
	defer s.Close()
	list := gctest.BuildList(h, 10)
	gctest.Churn(h, 1000) // forces promoting collections
	gctest.CheckList(t, h, list, 10)
	if heap.PtrSpace(h.Get(list)) == c.young.Space().ID {
		t.Error("survivor still in nursery")
	}
	if c.GCStats().WordsPromoted == 0 {
		t.Error("no promotion recorded")
	}
}

func TestRemsetAPreservesNurseryObject(t *testing.T) {
	h := heap.New()
	c := New(h, 256, 8, 1024)
	s := h.Scope()
	defer s.Close()

	holder := h.Cons(h.Fix(1), h.Null())
	c.Collect() // moves holder into the dynamic area, empties nursery
	if heap.PtrSpace(h.Get(holder)) == c.young.Space().ID {
		t.Fatal("holder not promoted")
	}
	func() {
		s2 := h.Scope()
		defer s2.Close()
		young := h.Cons(h.Fix(55), h.Null())
		h.SetCar(holder, young)
	}()
	if a, _ := c.RemsetLens(); a == 0 {
		t.Fatal("barrier missed dynamic-to-nursery store")
	}
	gctest.Churn(h, 1000)
	got := h.Car(holder)
	if !h.IsPair(got) || h.FixVal(h.Car(got)) != 55 {
		t.Error("nursery object referenced only from dynamic area was lost")
	}
}

func TestNpCollectEmptiesNursery(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 8, 1024)
	s := h.Scope()
	defer s.Close()
	keep := h.Cons(h.Fix(3), h.Null())
	if heap.PtrSpace(h.Get(keep)) != c.young.Space().ID {
		t.Fatal("setup: object not in nursery")
	}
	c.Collect()
	if c.young.Space().Used() != 0 {
		t.Error("nursery not empty after non-predictive collection")
	}
	if heap.PtrSpace(h.Get(keep)) == c.young.Space().ID {
		t.Error("live nursery object not promoted by non-predictive collection")
	}
	if v := h.FixVal(h.Car(keep)); v != 3 {
		t.Errorf("object corrupted: %d", v)
	}
}

func TestSituation5EntersRemsetB(t *testing.T) {
	// Promote an object into steps 1..j while it points into steps j+1..k:
	// the promotion scan must put it in remembered set B, which must keep
	// its referent alive across the next non-predictive collection even
	// after every direct root to the referent is dropped.
	h := heap.New(heap.WithConfig(heap.Config{})) // asserts wholesale promotion (its fill loop never ends once an adaptive controller stops promoting)
	c := New(h, 256, 6, 512, WithPolicy(core.FixedJ(2)), WithGrowth())
	s := h.Scope()
	defer s.Close()

	old := h.Cons(h.Fix(77), h.Null())
	c.Collect() // old lands in the dynamic area's old region
	if !c.st.InOld(h.Get(old)) {
		t.Fatalf("setup: object at position %d not in old region (j=%d)",
			c.st.PosOf(h.Get(old)), c.st.J())
	}

	// Fill the old-region steps with *live* filler so subsequent
	// promotions are forced down into steps 1..j, keeping only every
	// fourth pair alive so the eventual collection has room.
	filler := h.MakeVector(64, h.Null())
	slot := 0
	fill := func() {
		p := h.Cons(h.Fix(int64(slot)), h.Null())
		if slot%4 == 0 {
			h.VectorSet(filler, (slot/4)%64, p)
		}
		h.Set(p, heap.NullWord)
		slot++
	}
	majorsAtSetup := c.GCStats().MajorCollections
	oldFree := func() int {
		n := 0
		for p := c.st.J(); p < c.st.K(); p++ {
			n += c.st.Step(p).Free()
		}
		return n
	}
	// Until the old region cannot absorb a full nursery, so the next
	// promoting collection must choose the young steps.
	for oldFree() >= c.young.Space().Cap() {
		fill()
		if c.GCStats().MajorCollections > majorsAtSetup {
			t.Fatal("setup: non-predictive collection ran before steps 1..j were exercised")
		}
	}

	// Now create the holder in the nursery and force a promoting
	// collection: with all old-region steps full it must land in
	// steps 1..j while pointing at old.
	holder := h.Cons(old, h.Null())
	for heap.PtrSpace(h.Get(holder)) == c.young.Space().ID {
		fill()
	}
	pos := c.st.PosOf(h.Get(holder))
	if pos < 0 || pos >= c.st.J() {
		t.Fatalf("holder promoted to position %d, want < j=%d", pos, c.st.J())
	}
	if _, b := c.RemsetLens(); b == 0 {
		t.Fatal("situation 5 promotion did not enter remembered set B")
	}

	h.Set(old, heap.NullWord) // drop the direct root to the referent
	c.Collect()               // non-predictive collection of steps j+1..k
	got := h.Car(holder)
	if !h.IsPair(got) || h.FixVal(h.Car(got)) != 77 {
		t.Error("object reachable only through a promoted young-step object was lost")
	}
}

func TestLargeObjectGoesToDynamicArea(t *testing.T) {
	h := heap.New()
	c := New(h, 256, 8, 1024)
	s := h.Scope()
	defer s.Close()
	v := h.MakeVector(300, h.Null())
	if heap.PtrSpace(h.Get(v)) == c.young.Space().ID {
		t.Error("large object in nursery")
	}
	if c.st.PosOf(h.Get(v)) < 0 {
		t.Error("large object not in a dynamic step")
	}
}

// TestGrowthRungAfterFragmentedCollection reaches AllocOld's growth
// rung: three live 51-word vectors in three 100-word steps leave 49 words in
// each after a whole-heap collection, over what the collection's own growth
// keeps free, but a fourth vector fits no step, so the allocation adds one.
func TestGrowthRungAfterFragmentedCollection(t *testing.T) {
	h := heap.New()
	c := New(h, 64, 3, 100, WithGrowth(), WithPolicy(core.ZeroJ{}))
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
	if k := c.st.K(); k != 4 {
		t.Fatalf("k = %d after the fourth vector, want 4: one step added by the rung", k)
	}
	if pos := c.st.PosOf(h.Get(v)); pos != 0 {
		t.Errorf("the fourth vector landed at position %d, want the added step 0", pos)
	}
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthUnderLiveLoad(t *testing.T) {
	h := heap.New()
	c := New(h, 512, 4, 512, WithGrowth())
	s := h.Scope()
	defer s.Close()
	list := gctest.BuildList(h, 3000)
	gctest.CheckList(t, h, list, 3000)
	if c.st.K() <= 4 {
		t.Errorf("dynamic area did not grow: k = %d", c.st.K())
	}
}

// TestGrowthKeepsTwoNurseryLoadsFree pins the growth floor of the hybrid's
// non-predictive collection. With steps half the nursery's size, the
// smallest New accepts, a third of the step heap is less than two nursery
// loads, so a growth-mode collection that leaves a third free must still
// add steps until two nursery loads are: the promotions that follow would
// otherwise run it again almost at once.
func TestGrowthKeepsTwoNurseryLoadsFree(t *testing.T) {
	const nursery, n = 4096, 3400 // n pairs: about 10k live words
	h := heap.New()
	c := New(h, nursery, 8, nursery/2, WithGrowth())
	s := h.Scope()
	defer s.Close()
	list := gctest.BuildList(h, n)
	c.Collect()
	if third := c.st.K() * c.st.StepWords / 3; third >= 2*nursery {
		t.Fatalf("setup: k = %d, so a third of the step heap (%d words) is two nursery loads by itself", c.st.K(), third)
	}
	if free := c.st.FreeWords(); free < 2*nursery {
		t.Errorf("%d words free after a growth-mode collection, want at least two nursery loads (%d)", free, 2*nursery)
	}
	gctest.CheckList(t, h, list, n)
}

// youngStepHolder builds the set-A situation on a fresh fixed-j hybrid: a
// 301-word vector in young step position 1, which FixedJ(2) never
// collects, whose first slot holds the only reference to a nursery cons of
// 42. The heap pins wholesale promotion.
func youngStepHolder(t *testing.T) (h *heap.Heap, c *Collector, vec heap.Ref) {
	t.Helper()
	h = heap.New(heap.WithConfig(heap.Config{}))
	c = New(h, 512, 8, 1024, WithGrowth(), WithPolicy(core.FixedJ(2)))
	t.Cleanup(h.Scope().Close)

	// Fill the six old-region steps with 301-word vectors (three per step)
	// so the next large allocation descends into young position 1.
	for i := 0; i < 18; i++ {
		func() {
			sc := h.Scope()
			defer sc.Close()
			h.MakeVector(300, h.Null())
		}()
	}
	vec = h.MakeVector(300, h.Null())
	if pos := c.st.PosOf(h.Get(vec)); pos != 1 {
		t.Fatalf("probe vector landed at step position %d, want 1 (young)", pos)
	}
	func() {
		sc := h.Scope()
		defer sc.Close()
		h.VectorSet(vec, 0, h.Cons(h.Fix(42), h.Null()))
	}()
	if a, _ := c.RemsetLens(); a == 0 {
		t.Fatal("barrier missed young-step-to-nursery store")
	}
	return h, c, vec
}

// checkYoungStepHolder asserts that vec's first slot still reaches the cons
// of 42 and that the heap is well formed.
func checkYoungStepHolder(t *testing.T, h *heap.Heap, vec heap.Ref) {
	t.Helper()
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
	elem := h.VectorRef(vec, 0)
	if !h.IsPair(elem) || h.FixVal(h.Car(elem)) != 42 {
		t.Error("object reachable only through a young-step slot was lost")
	}
}

// A promoting collection that places nursery survivors in the old region
// turns set-A entries (young-step objects pointing into the nursery) into
// young-step objects pointing into steps j+1..k — exactly what set B must
// cover, or the next non-predictive collection leaves their slots dangling.
func TestPromotionIntoOldStepsMigratesSetAToSetB(t *testing.T) {
	h, c, vec := youngStepHolder(t)
	c.Minor(0) // promotes the cons into the old region
	if _, b := c.RemsetLens(); b == 0 {
		t.Fatal("promotion into the old region did not migrate the set-A entry to set B")
	}
	c.Collect() // non-predictive collection of steps j+1..k
	checkYoungStepHolder(t, h, vec)
}

// A non-predictive collection evacuates the nursery along with steps
// j+1..k, so a young-step object pointing into the nursery, held in set A
// alone, is one of its roots: the cons must be promoted, not dropped with
// the nursery.
func TestNpCollectScansSetA(t *testing.T) {
	h, c, vec := youngStepHolder(t)
	if _, b := c.RemsetLens(); b != 0 {
		t.Fatal("setup: set B holds an entry, so set A would not be the only root")
	}
	c.Collect()
	checkYoungStepHolder(t, h, vec)
}

// TestMinorSpillsIntoFullCollection runs the fixed-j hybrid on the heap the
// conformance suite shrinks by 16 (a 32-word nursery, 8 steps of 64 words).
// On these seeds a promoting collection's region has as many free words as
// the nursery holds, but in step tails a survivor does not fit. Each must
// spill the rest and end in a full collection, clean under the shadow model
// and the verifier, where it once overflowed the evacuation. The seeds
// reach the spill under wholesale promotion, so the heap pins it.
func TestMinorSpillsIntoFullCollection(t *testing.T) {
	for _, seed := range []int64{1010, 1037, 1081, 1084, 1087, 1140} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h := heap.New(heap.WithConfig(heap.Config{}))
			c := New(h, 32, 8, 64, WithGrowth(), WithPolicy(core.FixedJ(2)))
			gctest.RandomOps(t, h, c, 400, seed)
			if len(c.spills) == 0 {
				t.Error("no minor spilled: the seed no longer reaches the path it was chosen for")
			}
		})
	}
}

// TestTenuredMinorSpillsIntoFullCollection builds the spill under a tenuring
// nursery (threshold 3) directly rather than from seeds, which at this
// threshold never spilled: a tenuring minor promotes only objects that have
// survived two minors before, and retains the rest in a survivor shadow as
// large as the nursery, so what it promotes is small and random heaps leave
// it room. Here the collected region, steps 3..8, is filled with rooted
// 57-word vectors (too large for the 32-word nursery, so allocated straight
// into the steps) down to a 7-word tail each: 42 free words, as many as the
// nursery holds, but none in a run of more than 7. A 10-word vector in the
// nursery is retained by the first two minors and promoted by the third,
// fits no tail, goes to a spill space and ends the minor in a full
// collection; everything is then intact.
func TestTenuredMinorSpillsIntoFullCollection(t *testing.T) {
	h := heap.New(heap.WithConfig(heap.Config{Tenure: 3}))
	c := New(h, 32, 8, 64, WithGrowth(), WithPolicy(core.FixedJ(2)))
	s := h.Scope()
	defer s.Close()
	var fills []heap.Ref
	for i := 0; i < 6; i++ {
		fills = append(fills, h.MakeVector(56, h.Fix(int64(i))))
	}
	for p := 2; p < 8; p++ {
		if free := c.st.Step(p).Free(); free != 7 {
			t.Fatalf("step %d has %d free words, want 7", p+1, free)
		}
	}
	survivor := h.MakeVector(9, h.Fix(99))
	for minors := 0; c.stats.Collections < 3; minors++ {
		if minors == 1000 {
			t.Fatal("no third collection")
		}
		gctest.Churn(h, 1)
		if n := c.stats.Collections; n < 3 && len(c.spills) != 0 {
			t.Fatalf("collection %d spilled; only the third should", n)
		}
	}
	if len(c.spills) == 0 || c.stats.WordsTenured == 0 {
		t.Fatalf("the third minor did not spill (%d spill spaces, %d words tenured)", len(c.spills), c.stats.WordsTenured)
	}
	if c.stats.MajorCollections != 1 {
		t.Errorf("%d major collections; the spill should end the minor in one full collection", c.stats.MajorCollections)
	}
	if err := heap.VerifyCollector(h, c); err != nil {
		t.Fatal(err)
	}
	for i, v := range fills {
		if h.VectorLen(v) != 56 || h.FixVal(h.VectorRef(v, 55)) != int64(i) {
			t.Fatalf("fill vector %d did not survive intact", i)
		}
	}
	if h.VectorLen(survivor) != 9 || h.FixVal(h.VectorRef(survivor, 8)) != 99 {
		t.Fatal("the promoted survivor did not survive intact")
	}
}
