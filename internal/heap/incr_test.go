package heap

import (
	"testing"
)

// buildIncrChain bump-allocates a chain of n pairs in s (car = fixnum,
// cdr = previous pair) and returns the head pointer word.
func buildIncrChain(h *Heap, s *Space, n int) Word {
	prev := NullWord
	for i := 0; i < n; i++ {
		off, ok := s.Bump(3)
		if !ok {
			panic("incr_test: chain arena too small")
		}
		w := h.InitObject(s, off, TPair, 2)
		s.Mem[off+1] = FixnumWord(int64(i))
		s.Mem[off+2] = prev
		prev = w
	}
	return prev
}

// TestIncrMarkerSlices drives a full incremental cycle by hand: root scan,
// debt-paced bounded slices, termination — and checks the result against
// what a stop-the-world mark of the same graph finds.
func TestIncrMarkerSlices(t *testing.T) {
	const pairs = 500
	h := New()
	h.cfg.SliceBudget = 64
	s := h.NewSpace("incr-arena", 1<<14)
	h.GlobalWord(buildIncrChain(h, s, pairs))

	m := NewMarker(h, nil)
	m.SetRegion(s)
	m.Begin()
	im := NewIncrMarker(h, m)

	rootPause := im.StartRoots()
	if rootPause == 0 {
		t.Fatal("StartRoots() scanned no root slots")
	}
	if im.Budget != 64 {
		t.Fatalf("Budget = %d, want the heap's 64", im.Budget)
	}

	// The debt threshold is Budget/incrMarkRatio = 16 allocated words.
	if im.NeedSlice(8) {
		t.Fatal("8 words of debt must not warrant a 64-word slice yet")
	}
	if !im.NeedSlice(8) {
		t.Fatal("16 accumulated words of debt must warrant a slice")
	}

	var sliceWords uint64
	for !im.Done() {
		p := im.RunSlice()
		// The budget is checked between objects, so a slice may overshoot
		// by at most the last object scanned (a 3-word pair here).
		if p > 64+3 {
			t.Fatalf("slice scanned %d words, over the 64-word budget plus one object", p)
		}
		sliceWords += p
	}
	if im.Slices < 2 {
		t.Fatalf("marking %d pairs at budget 64 took %d slices, want several", pairs, im.Slices)
	}
	if sliceWords != im.SliceWords {
		t.Fatalf("SliceWords = %d, slices returned %d", im.SliceWords, sliceWords)
	}

	term := im.FinishDrain()
	if term < rootPause {
		t.Fatalf("termination pause %d cannot undercut the root re-scan %d", term, rootPause)
	}
	if im.Active {
		t.Fatal("marker still active after FinishDrain")
	}

	// Stop-the-world mark of the identical graph: same objects, same words.
	h2 := New()
	s2 := h2.NewSpace("stw-arena", 1<<14)
	h2.GlobalWord(buildIncrChain(h2, s2, pairs))
	m2 := NewMarker(h2, nil)
	m2.SetRegion(s2)
	m2.Begin()
	m2.Run()
	if m.ObjectsMarked != m2.ObjectsMarked || m.WordsMarked != m2.WordsMarked {
		t.Fatalf("incremental marked %d objects / %d words; stop-the-world %d / %d",
			m.ObjectsMarked, m.WordsMarked, m2.ObjectsMarked, m2.WordsMarked)
	}
}

// TestIncrMarkerShade checks the insertion barrier's shading: a pointer
// stored while marking is active is grayed exactly once, and non-pointers
// are free.
func TestIncrMarkerShade(t *testing.T) {
	h := New()
	s := h.NewSpace("shade-arena", 1<<12)
	h.GlobalWord(buildIncrChain(h, s, 4))
	// An object the roots do not reach: only the barrier can save it.
	off, _ := s.Bump(3)
	orphan := h.InitObject(s, off, TPair, 2)
	s.Mem[off+1] = FixnumWord(7)
	s.Mem[off+2] = NullWord

	m := NewMarker(h, nil)
	m.SetRegion(s)
	m.Begin()
	im := NewIncrMarker(h, m)

	var g GCStats
	im.Shade(orphan, &g)
	if g.BarrierShades != 0 {
		t.Fatal("Shade before StartRoots must be inert")
	}

	im.StartRoots()
	im.Shade(FixnumWord(3), &g)
	if g.BarrierShades != 0 {
		t.Fatal("shading a fixnum counted as a barrier shade")
	}
	im.Shade(orphan, &g)
	if g.BarrierShades != 1 || !s.MarkedAt(off) {
		t.Fatalf("first shade: BarrierShades = %d, marked = %v; want 1, true",
			g.BarrierShades, s.MarkedAt(off))
	}
	im.Shade(orphan, &g)
	if g.BarrierShades != 1 {
		t.Fatalf("re-shading a marked object counted again: BarrierShades = %d", g.BarrierShades)
	}

	im.FinishDrain()
	if !s.MarkedAt(off) {
		t.Fatal("the shaded orphan lost its mark at termination")
	}
}

func TestIncrMarkerCancel(t *testing.T) {
	h := New()
	h.cfg.SliceBudget = 8
	s := h.NewSpace("cancel-arena", 1<<13)
	h.GlobalWord(buildIncrChain(h, s, 200))

	m := NewMarker(h, nil)
	m.SetRegion(s)
	m.Begin()
	im := NewIncrMarker(h, m)
	im.StartRoots()
	im.RunSlice() // leave the cycle half-done
	im.Cancel()
	if im.Active || !m.StackEmpty() {
		t.Fatalf("Cancel left active=%v, stack empty=%v", im.Active, m.StackEmpty())
	}

	// After clearing the partial marks, a fresh stop-the-world mark must see
	// the whole chain (stale marks would have truncated it).
	ClearMarks(s)
	m.Begin()
	m.Run()
	if m.ObjectsMarked != 200 {
		t.Fatalf("post-cancel mark found %d objects, want 200", m.ObjectsMarked)
	}
}

// TestLazySweepMatchesEager sweeps one fixture lazily — a mix of on-demand,
// paced, and flush sweeps — and its twin eagerly, and requires bit-identical
// heap images, free lists, and word totals; a second flush finds nothing.
func TestLazySweepMatchesEager(t *testing.T) {
	hl, lazySpaces := buildSweepFixture(42)
	he, eagerSpaces := buildSweepFixture(42)
	eager := NewSweeper(he).Sweep(eagerSpaces...)

	sw := NewSweeper(hl)
	sw.BeginLazy(lazySpaces...)
	wantPend := 0
	for _, s := range lazySpaces {
		wantPend += s.NumBlocks()
	}
	if sw.LazyPending() != wantPend {
		t.Fatalf("LazyPending() = %d after BeginLazy, want %d", sw.LazyPending(), wantPend)
	}

	var lazy uint64
	// On-demand: the allocation path's EnsureSwept, once per block.
	lazy += uint64(sw.EnsureSwept(lazySpaces[0], 3))
	if w := sw.EnsureSwept(lazySpaces[0], 3); w != 0 {
		t.Fatalf("EnsureSwept swept block 3 twice (second call returned %d)", w)
	}
	// Paced: a few background blocks in address order.
	for i := 0; i < 5; i++ {
		w, ok := sw.SweepPendingBlock()
		if !ok {
			t.Fatal("SweepPendingBlock() ran dry with blocks still pending")
		}
		lazy += uint64(w)
	}
	// Flush: everything left, as a stop-the-world reset would.
	lazy += sw.FinishLazy()
	if sw.LazyPending() != 0 {
		t.Fatalf("LazyPending() = %d after FinishLazy, want 0", sw.LazyPending())
	}
	if _, ok := sw.SweepPendingBlock(); ok {
		t.Fatal("SweepPendingBlock() found work after FinishLazy")
	}
	if w := sw.FinishLazy(); w != 0 {
		t.Fatalf("a second FinishLazy swept %d words, want 0", w)
	}
	if lazy != eager {
		t.Fatalf("lazy sweep examined %d words, eager %d", lazy, eager)
	}

	for i, se := range eagerSpaces {
		sl := lazySpaces[i]
		for off, w := range se.Mem {
			if sl.Mem[off] != w {
				t.Fatalf("space %d word %d: lazy %#x, eager %#x", i, off, sl.Mem[off], w)
			}
		}
		for b := 0; b < se.NumBlocks(); b++ {
			el, ll := freeListOf(se, b), freeListOf(sl, b)
			if len(el) != len(ll) {
				t.Fatalf("space %d block %d: free list lengths %d vs %d", i, b, len(ll), len(el))
			}
			for j := range el {
				if el[j] != ll[j] {
					t.Fatalf("space %d block %d: free lists diverge at %d", i, b, j)
				}
			}
		}
	}
}

// TestHeapAddPause checks the pause plumbing every collector routes through:
// the histogram, its max/total counters, and the optional raw log.
func TestHeapAddPause(t *testing.T) {
	h := New()
	var logged []uint64
	h.SetPauseLog(func(words uint64) { logged = append(logged, words) })

	var g GCStats
	for _, w := range []uint64{5, 900, 17} {
		h.AddPause(&g, w)
	}
	if g.Pauses.Count != 3 || g.Pauses.TotalWords != 922 || g.Pauses.MaxWords != 900 {
		t.Fatalf("pause counters = (%d, %d, %d), want (3, 922, 900)",
			g.Pauses.Count, g.Pauses.TotalWords, g.Pauses.MaxWords)
	}
	if len(logged) != 3 || logged[0] != 5 || logged[1] != 900 || logged[2] != 17 {
		t.Fatalf("pause log saw %v, want [5 900 17]", logged)
	}

	h.SetPauseLog(nil)
	h.AddPause(&g, 1)
	if len(logged) != 3 {
		t.Fatal("a removed pause log still received values")
	}
	if g.Pauses.Count != 4 {
		t.Fatal("AddPause without a log must still feed the histogram")
	}
}
