package marksweep

import (
	"math/rand"
	"slices"
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

// The per-size cursor (Collector.hint) is a pure search optimization: it may
// only skip blocks a plain first-fit scan would have rejected without side
// effects. These tests hold it to that against a reference allocator that
// has no cursor and no MaxRun, check the cursor invariant directly at every
// point the free lists are refilled, and count blocks visited to pin the
// cost the cursor exists to remove.

// refAllocator is the reference: the collector's allocation policy (AllocRaw,
// step for step, in both modes) over a plain linear first-fit scan that
// starts at block 0 of space 0 on every request and walks every free list it
// meets. Installed as the allocator of a second heap, it shares the real
// collector's marking, sweeping, pacing and growth — everything but the
// search.
type refAllocator struct {
	c       *Collector
	visited uint64
}

func newRef(h *heap.Heap, words int, opts ...Option) *refAllocator {
	r := &refAllocator{c: New(h, words, opts...)}
	h.SetAllocator(r)
	return r
}

func (r *refAllocator) AllocRaw(t heap.Type, payload int) heap.Word {
	c := r.c
	total := 1 + payload + c.h.ExtraWords()
	if c.incr != nil {
		c.incrTick(total)
	}
	if total > heap.LargeObjectWords {
		return c.allocLarge(t, payload, total)
	}
	s, off, ok := r.scan(total)
	if !ok && c.incr != nil && c.phase == msMarking {
		c.finishMark()
		s, off, ok = r.scan(total)
	}
	if !ok {
		c.Collect()
		s, off, ok = r.scan(total)
		if !ok && c.expand > 0 {
			c.grow(total)
			s, off, ok = r.scan(total)
		}
		if !ok {
			panic("reference allocator: out of memory")
		}
	}
	return c.h.InitObject(s, off, t, payload)
}

func (r *refAllocator) scan(n int) (*heap.Space, int, bool) {
	for _, s := range r.c.spaces {
		for b := range s.Blocks.FreeHead {
			r.visited++
			if r.c.incr != nil {
				r.c.ensureSwept(s, b)
			}
			if off, ok := carveFirstFit(s, b, n); ok {
				return s, off, true
			}
		}
	}
	return nil, 0, false
}

// carveFirstFit is heap.Space.AllocFromBlock without MaxRun: take the first
// listed run of at least n words, relink a remainder of two or more words in
// its place, leave a one-word remainder unlinked.
func carveFirstFit(s *heap.Space, b, n int) (int, bool) {
	prev := heap.NoFreeBlock
	for off := int(s.Blocks.FreeHead[b]); off != heap.NoFreeBlock; off = heap.FreeNext(s, off) {
		words := heap.ObjWords(s.Mem[off])
		if words < n {
			prev = off
			continue
		}
		next := heap.FreeNext(s, off)
		switch rem := words - n; {
		case rem > 1:
			s.Mem[off+n] = heap.HeaderWord(heap.TFree, rem-1)
			heap.SetFreeNext(s, off+n, next)
			next = off + n
		case rem == 1:
			s.Mem[off+n] = heap.HeaderWord(heap.TFree, 0)
		}
		if prev == heap.NoFreeBlock {
			s.Blocks.FreeHead[b] = int32(next)
		} else {
			heap.SetFreeNext(s, prev, next)
		}
		return off, true
	}
	return 0, false
}

// checkCursors asserts the invariant tryAlloc relies on: every block a
// cursor has passed is swept, and its free list holds no run the cursor's
// size would fit in.
func checkCursors(t *testing.T, c *Collector) {
	t.Helper()
	if len(c.hint) != len(c.spaces) {
		t.Fatalf("%d cursor sets for %d spaces", len(c.hint), len(c.spaces))
	}
	for i, s := range c.spaces {
		if len(c.hint[i]) != heap.LargeObjectWords+1 {
			t.Fatalf("space %d has %d cursors, want one per size up to %d", i, len(c.hint[i]), heap.LargeObjectWords)
		}
		// longest[b] is the longest listed run in blocks [0, b), or a run no
		// request can be too big for once an unswept block is among them.
		longest := make([]int, len(s.Blocks.FreeHead)+1)
		for b := range s.Blocks.FreeHead {
			longest[b+1] = longest[b]
			if s.Blocks.UnsweptAt(b) {
				longest[b+1] = heap.BlockWords
			}
			for off := int(s.Blocks.FreeHead[b]); off != heap.NoFreeBlock && longest[b+1] < heap.BlockWords; off = heap.FreeNext(s, off) {
				longest[b+1] = max(longest[b+1], heap.ObjWords(s.Mem[off]))
			}
		}
		for n, cur := range c.hint[i] {
			if cur > 0 && longest[cur] >= n {
				t.Fatalf("space %d: cursor for %d words is at block %d, past an unswept block or a run of %d words", i, n, cur, longest[cur])
			}
		}
	}
}

// requireZeroCursors asserts every cursor is back at block 0.
func requireZeroCursors(t *testing.T, c *Collector, when string) {
	t.Helper()
	for i, cur := range c.hint {
		for n, b := range cur {
			if b != 0 {
				t.Fatalf("%s: cursor for %d words in space %d still at block %d", when, n, i, b)
			}
		}
	}
}

// sameHeaps compares everything the determinism contract covers between the
// real collector's heap and the reference's: every word of every space, the
// free-list heads and pending-sweep flags, mutator and collector statistics
// (pause histogram included) and the incremental phase. MaxRun is the one
// piece of state deliberately left out — the reference keeps none.
func sameHeaps(t *testing.T, step int, c, ref *Collector) {
	t.Helper()
	if len(c.h.Spaces) != len(ref.h.Spaces) {
		t.Fatalf("step %d: %d spaces, reference has %d", step, len(c.h.Spaces), len(ref.h.Spaces))
	}
	for i, s := range c.h.Spaces {
		rs := ref.h.Spaces[i]
		if s.Top != rs.Top || !slices.Equal(s.Mem, rs.Mem) {
			t.Fatalf("step %d: heap image of %v differs from the reference's", step, s)
		}
		if (s.Blocks == nil) != (rs.Blocks == nil) {
			t.Fatalf("step %d: block table of %v present on one side only", step, s)
		}
		if s.Blocks != nil && (!slices.Equal(s.Blocks.FreeHead, rs.Blocks.FreeHead) || !slices.Equal(s.Blocks.Unswept, rs.Blocks.Unswept)) {
			t.Fatalf("step %d: free-list heads or pending sweeps of %v differ from the reference's", step, s)
		}
	}
	if c.stats != ref.stats {
		t.Fatalf("step %d: GCStats differ:\n got %+v\nwant %+v", step, c.stats, ref.stats)
	}
	if c.h.Stats != ref.h.Stats || c.phase != ref.phase {
		t.Fatalf("step %d: mutator stats or phase differ (phase %d, reference %d)", step, c.phase, ref.phase)
	}
}

// TestCursorPlacementMatchesPlainFirstFit drives the real collector and the
// reference in lock-step through a randomized mix of request sizes (small,
// near the large-object threshold, and large), retention into a rooted
// table, drops, and explicit collections, on a heap that grows from one
// space into at least three — stop-the-world, incremental at the default
// slice budget, and incremental at 64 words so slices, lazy sweeps and the
// paced background sweep interleave as finely as they can. After every
// operation the returned address, the full heap images and all statistics
// must be identical, and the cursors must satisfy their invariant.
func TestCursorPlacementMatchesPlainFirstFit(t *testing.T) {
	modes := []struct {
		name string
		seed int64
		cfg  heap.Config
	}{
		{"stop-the-world", 1, heap.Config{}},
		{"incremental", 2, heap.Config{Incremental: true}},
		{"incremental-slice64", 3, heap.Config{Incremental: true, SliceBudget: 64}},
	}
	const (
		initial = 4 * heap.BlockWords
		slots   = 300
		steps   = 4000
	)
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			h, rh := heap.New(heap.WithConfig(mode.cfg)), heap.New(heap.WithConfig(mode.cfg))
			c := New(h, initial, WithExpansion(2))
			ref := newRef(rh, initial, WithExpansion(2))
			table, rtable := h.Global(h.MakeVector(slots, h.Null())), rh.Global(rh.MakeVector(slots, rh.Null()))
			rng := rand.New(rand.NewSource(mode.seed))
			for step := 0; step < steps; step++ {
				if rng.Intn(400) == 0 {
					c.Collect()
					ref.c.Collect()
					requireZeroCursors(t, c, "after Collect")
				} else {
					var n int
					switch p := rng.Intn(100); {
					case p < 85:
						n = rng.Intn(12) // pairs, boxes, short vectors
					case p < 98:
						n = 12 + rng.Intn(heap.LargeObjectWords-12) // up to the threshold
					default:
						n = heap.LargeObjectWords + rng.Intn(300) // large-object space
					}
					slot, keep := rng.Intn(slots), rng.Intn(3) == 0
					s, rs := h.Scope(), rh.Scope()
					v, rv := h.MakeVector(n, h.Null()), rh.MakeVector(n, rh.Null())
					if h.Get(v) != rh.Get(rv) {
						t.Fatalf("step %d: %d-slot vector placed at %#x, plain first-fit places it at %#x",
							step, n, uint64(h.Get(v)), uint64(rh.Get(rv)))
					}
					if keep {
						h.VectorSet(table, slot, v)
						rh.VectorSet(rtable, slot, rv)
					}
					s.Close()
					rs.Close()
				}
				sameHeaps(t, step, c, ref.c)
				checkCursors(t, c)
			}
			if len(c.spaces) < 3 {
				t.Errorf("heap grew to %d spaces, the test wants at least 3", len(c.spaces))
			}
			if c.stats.Collections < 5 {
				t.Errorf("only %d collections ran", c.stats.Collections)
			}
			if err := heap.VerifyCollector(h, c); err != nil {
				t.Error(err)
			}
			t.Logf("%d spaces, %d words, %d collections, %d pauses", len(c.spaces), c.HeapWords(), c.stats.Collections, c.stats.Pauses.Count)
		})
	}
}

// firstBlock returns the block index of an object in the collector's first
// space, failing the test if it lives anywhere else.
func firstBlock(t *testing.T, c *Collector, w heap.Word) int {
	t.Helper()
	if heap.PtrSpace(w) != c.spaces[0].ID {
		t.Fatalf("object %#x is outside the first space", uint64(w))
	}
	return heap.PtrOff(w) >> heap.BlockShift
}

// TestCursorResetAfterCollect: a stop-the-world collection refills every
// list, so the cursors a mutator phase advanced must all rewind — the next
// request of an advanced size lands back in block 0.
func TestCursorResetAfterCollect(t *testing.T) {
	h := heap.New()
	c := New(h, 8*heap.BlockWords)
	for i := 0; i < 3*heap.BlockWords/3; i++ { // three blocks of dead pairs
		c.AllocRaw(heap.TPair, 2)
	}
	if c.hint[0][3] < 2 {
		t.Fatalf("cursor for 3 words at block %d after filling three blocks", c.hint[0][3])
	}
	checkCursors(t, c)
	c.Collect()
	requireZeroCursors(t, c, "after Collect")
	if b := firstBlock(t, c, c.AllocRaw(heap.TPair, 2)); b != 0 {
		t.Errorf("first pair after the collection placed in block %d, want 0", b)
	}
}

// TestCursorResetAfterFinishMark: incremental termination flags every block
// unswept, which is a wholesale refill as far as the cursors are concerned.
func TestCursorResetAfterFinishMark(t *testing.T) {
	h, c := newIncremental(t, 16*heap.BlockWords)
	terminations := 0
	h.SetAfterGC(func() {
		terminations++
		requireZeroCursors(t, c, "at the end of finishMark")
	})
	for c.phase != msSweeping {
		c.AllocRaw(heap.TPair, 2)
		checkCursors(t, c)
	}
	if terminations != 1 || c.stats.Collections != 1 {
		t.Fatalf("reached the sweep phase after %d terminations, %d collections", terminations, c.stats.Collections)
	}
	// Everything allocated so far is dead: block 0 sweeps to one maximal run
	// the moment the scan reaches it.
	if b := firstBlock(t, c, c.AllocRaw(heap.TPair, 2)); b != 0 {
		t.Errorf("first pair after termination placed in block %d, want 0", b)
	}
	checkCursors(t, c)
}

// TestCursorsAfterGrow: a new space arrives with its own zeroed cursors, the
// cursors of the exhausted spaces stay where they are, and the next
// collection rewinds them all.
func TestCursorsAfterGrow(t *testing.T) {
	h := heap.New()
	c := New(h, heap.BlockWords, WithExpansion(2))
	s := h.Scope()
	list := gctest.BuildList(h, 2*heap.BlockWords/3) // two blocks of live pairs into a one-block heap
	if len(c.spaces) < 2 {
		t.Fatalf("heap did not grow: %d spaces", len(c.spaces))
	}
	checkCursors(t, c)
	if got := int(c.hint[0][3]); got != c.spaces[0].NumBlocks() {
		t.Errorf("cursor for 3 words in the full first space at block %d of %d", got, c.spaces[0].NumBlocks())
	}
	gctest.CheckList(t, h, list, 2*heap.BlockWords/3)
	s.Close()
	c.Collect()
	requireZeroCursors(t, c, "after Collect on the grown heap")
	if b := firstBlock(t, c, c.AllocRaw(heap.TPair, 2)); b != 0 {
		t.Errorf("first pair after collecting the grown heap placed in block %d, want 0", b)
	}
}

// TestCursorSeesBackgroundSweptBlocks: during the lazy sweep the paced
// background scan (SweepPendingBlock) refills blocks at twice the rate
// allocation consumes them, so it runs ahead of the cursor. A block it
// refills must be one no cursor has passed, and the cursor must go on to
// allocate from it.
func TestCursorSeesBackgroundSweptBlocks(t *testing.T) {
	_, c := newIncremental(t, 32*heap.BlockWords)
	for c.phase != msSweeping {
		c.AllocRaw(heap.TPair, 2)
	}
	s := c.spaces[0]
	background := map[int]bool{} // blocks the paced scan swept, not the allocator
	served := 0
	for c.phase == msSweeping {
		before := slices.Clone(s.Blocks.Unswept)
		placed := firstBlock(t, c, c.AllocRaw(heap.TPair, 2))
		for b := range s.Blocks.FreeHead {
			if before[b>>6]&(1<<(b&63)) != 0 && !s.Blocks.UnsweptAt(b) && b != placed {
				if b < int(c.hint[0][3]) {
					t.Fatalf("background sweep refilled block %d behind the 3-word cursor at %d", b, c.hint[0][3])
				}
				background[b] = true
			}
		}
		if background[placed] {
			served++
		}
		checkCursors(t, c)
	}
	if len(background) == 0 || served == 0 {
		t.Fatalf("scenario not exercised: %d blocks swept in the background, %d pairs placed in them", len(background), served)
	}
}

// TestCursorBoundsBlocksVisited counts blocks, not nanoseconds. B blocks are
// swept to leave nothing but two-word holes — lists non-empty, so a cursor
// that skipped only empty lists could never advance — and then A three-word
// requests are served from the free tail. The plain scan walks the B
// hopeless blocks on every request; the cursor walks them once.
func TestCursorBoundsBlocksVisited(t *testing.T) {
	const (
		B    = 120
		A    = 600
		tail = A*3/heap.BlockWords + 2
	)
	h := heap.New()
	c := New(h, (B+tail)*heap.BlockWords)
	gctest.FragmentBlocks(h, B)
	c.Collect()
	for b := 0; b < B; b++ {
		if got := c.spaces[0].Blocks.MaxRun[b]; got != 2 {
			t.Fatalf("fixture: block %d swept to MaxRun %d, want 2", b, got)
		}
	}
	collections, before := c.stats.Collections, c.visited
	for i := 0; i < A; i++ {
		c.AllocRaw(heap.TPair, 2)
	}
	if c.stats.Collections != collections {
		t.Fatal("fixture: the measured phase collected")
	}
	if got := c.visited - before; got > 2*B+A {
		t.Errorf("%d allocations over %d fragmented blocks visited %d blocks, want at most 2B+A = %d", A, B, got, 2*B+A)
	}

	rh := heap.New()
	ref := newRef(rh, (B+tail)*heap.BlockWords)
	gctest.FragmentBlocks(rh, B)
	ref.c.Collect()
	before = ref.visited
	for i := 0; i < A; i++ {
		ref.AllocRaw(heap.TPair, 2)
	}
	if got := ref.visited - before; got < A*B {
		t.Errorf("fixture: the plain scan visited %d blocks, expected at least A*B = %d", got, A*B)
	}
}

// TestAllocRawDoesNotAllocate: the steady-state allocation path, collections
// included, runs without touching the Go heap.
func TestAllocRawDoesNotAllocate(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		h := heap.New(heap.WithConfig(heap.Config{Incremental: incremental}))
		c := New(h, 16*heap.BlockWords)
		churn := func() {
			for i := 0; i < 2000; i++ {
				c.AllocRaw(heap.TPair, 2)
			}
		}
		for c.stats.Collections < 2 {
			churn()
		}
		collections := c.stats.Collections
		if allocs := testing.AllocsPerRun(20, churn); allocs != 0 {
			t.Errorf("incremental=%v: AllocRaw allocates %.1f Go objects per 2000 calls", incremental, allocs)
		}
		if c.stats.Collections == collections {
			t.Errorf("incremental=%v: measured window ran no collection", incremental)
		}
	}
}
