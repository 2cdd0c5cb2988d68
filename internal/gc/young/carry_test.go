package young

import (
	"testing"

	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// TestCarryAndFreshFollowTheNursery pins the bookkeeping only the adaptive
// controller reads, which no heap image or GCStats field shows: fresh, the
// age-0 population a collection puts at risk, is the nursery words born
// since the previous collection — the nursery's occupancy less the
// survivors the last flip carried over, and all of it once a major or a
// wider window has emptied the nursery. (Leaving carry stale after a major
// passed every other test in the tree.)
func TestCarryAndFreshFollowTheNursery(t *testing.T) {
	h := heap.New(heap.WithConfig(heap.Config{Tenure: 2}))
	nursery := h.NewSpace("nursery", 1024)
	old := h.NewSpace("old", 8192)
	e := heap.NewEvacuator(h, nil)
	var st heap.GCStats
	var g Gen
	g.Init(h, nursery, e, remset.NewHashSet(), &st, nil)

	const pair = 3
	born := func(n int) { // n rooted pairs, never dropped
		for i := 0; i < n; i++ {
			off, ok := g.Space().Bump(pair)
			if !ok {
				t.Fatal("nursery full")
			}
			w := h.InitObject(g.Space(), off, heap.TPair, 2)
			g.Space().Mem[off+1], g.Space().Mem[off+2] = heap.NullWord, heap.NullWord
			h.GlobalWord(w)
		}
	}
	minor := func(wantFresh, wantCarry int) {
		t.Helper()
		g.Begin(old)
		if g.fresh != wantFresh {
			t.Fatalf("collection %d puts %d fresh words at risk, want %d", st.Collections+1, g.fresh, wantFresh)
		}
		e.EvacuateRoots()
		e.Drain()
		g.Flip()
		g.Refilter()
		g.Finish()
		if g.carry != wantCarry || g.Space().Top != wantCarry {
			t.Fatalf("collection %d carries %d words in a nursery holding %d, want %d", st.Collections, g.carry, g.Space().Top, wantCarry)
		}
	}

	born(10)
	minor(10*pair, 10*pair) // all age 1: retained
	born(5)
	minor(5*pair, 5*pair) // the ten reach age 2 and leave

	// A major promotes the nursery wholesale, outside the step.
	e.SetFrom(g.Space())
	e.Begin(old)
	e.Run()
	g.Space().Reset()
	g.AfterMajor(e.WordsCopied)
	born(4)
	minor(4*pair, 4*pair)

	// So does a wider multigen window or the hybrid's promote-to-static.
	e.SetFrom(g.Space())
	e.Begin(old)
	e.Run()
	g.Space().Reset()
	g.Emptied()
	born(2)
	minor(2*pair, 2*pair)

	if st.WordsTenured != (10+5+4+2)*pair || st.WordsPromoted != 10*pair {
		t.Errorf("retained %d and promoted %d words, want %d and %d", st.WordsTenured, st.WordsPromoted, (10+5+4+2)*pair, 10*pair)
	}
}
