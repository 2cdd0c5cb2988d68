package heap

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildSweepFixture populates a fresh heap with blocked spaces holding a
// deterministic pseudo-random mix of objects, then marks a deterministic
// subset. Two calls with the same seed produce bit-identical pre-sweep
// states, which is what lets the determinism tests compare sweeps at
// different worker counts word for word.
func buildSweepFixture(seed int64, workers int) (*Heap, []*Space) {
	h := New()
	h.cfg.Workers = workers
	rng := rand.New(rand.NewSource(seed))
	spaces := []*Space{
		h.NewBlockedSpace("sw-a", 16*BlockWords),
		h.NewBlockedSpace("sw-b", 7*BlockWords+133),
	}
	for _, s := range spaces {
		for b := 0; b < s.NumBlocks(); b++ {
			for {
				n := 1 + rng.Intn(10)
				off, ok := s.AllocFromBlock(b, n)
				if !ok {
					break
				}
				s.Mem[off] = HeaderWord(TVector, n-1)
				for i := 1; i < n; i++ {
					s.Mem[off+i] = FixnumWord(int64(off * i))
				}
			}
		}
		WalkSpace(s, func(off int, hdr Word) bool {
			if HeaderType(hdr) != TFree && rng.Intn(2) == 0 {
				s.SetMarkAt(off)
			}
			return true
		})
	}
	return h, spaces
}

func freeListOf(s *Space, b int) []int {
	var offs []int
	for off := int(s.Blocks.FreeHead[b]); off != NoFreeBlock; off = FreeNext(s, off) {
		offs = append(offs, off)
	}
	return offs
}

// TestSweepCoalesces checks the per-block free-list rebuild: runs of dead
// objects and old free blocks merge into maximal TFree blocks, the lists
// stay address-ordered, the space stays parsable, and survivors are
// untouched with their marks cleared.
func TestSweepCoalesces(t *testing.T) {
	h := New()
	s := h.NewBlockedSpace("coalesce", 2*BlockWords)

	// Block 0: survivor, dead, dead, survivor — the middle pair must merge.
	var offs []int
	for i := 0; i < 4; i++ {
		off, ok := s.AllocFromBlock(0, 8)
		if !ok {
			t.Fatal("fixture alloc failed")
		}
		s.Mem[off] = HeaderWord(TVector, 7)
		offs = append(offs, off)
	}
	s.SetMarkAt(offs[0])
	s.SetMarkAt(offs[3])

	swept := NewSweeper(h).Sweep(s)
	if swept != uint64(s.Cap()) {
		t.Errorf("WordsSwept = %d, want the full capacity %d", swept, s.Cap())
	}

	// The two dead 8-word objects plus the block remainder stay separate
	// runs (the survivor at offs[3] splits them): [dead+dead]=16 words and
	// the tail after offs[3].
	fl := freeListOf(s, 0)
	if len(fl) != 2 || fl[0] != offs[1] || fl[1] != offs[3]+8 {
		t.Fatalf("block 0 free list = %v, want [%d %d]", fl, offs[1], offs[3]+8)
	}
	if got := ObjWords(s.Mem[offs[1]]); got != 16 {
		t.Errorf("coalesced run = %d words, want 16", got)
	}
	if HeaderType(s.Mem[offs[0]]) != TVector || HeaderType(s.Mem[offs[3]]) != TVector {
		t.Error("sweep rewrote a survivor's header")
	}
	if !s.MarksClear() {
		t.Error("sweep left mark bits set")
	}
	// An untouched block sweeps back to one maximal free block.
	if fl := freeListOf(s, 1); len(fl) != 1 || fl[0] != BlockWords {
		t.Errorf("block 1 free list = %v, want one maximal block", fl)
	}
	WalkSpace(s, func(int, Word) bool { return true }) // panics if unparsable
}

// TestParallelSweepBitIdentical pins the sweep determinism contract: each
// block's result is a pure function of that block's contents and marks, so
// the swept image, every free list, and WordsSwept must be bit-identical to
// the sequential sweep at every worker count.
func TestParallelSweepBitIdentical(t *testing.T) {
	type result struct {
		mem    [][]Word
		free   [][]int32
		maxrun [][]int32
		swept  uint64
	}
	capture := func(workers int) result {
		h, spaces := buildSweepFixture(43, workers)
		swept := NewSweeper(h).Sweep(spaces...)
		r := result{swept: swept}
		for _, s := range spaces {
			r.mem = append(r.mem, append([]Word(nil), s.Mem...))
			r.free = append(r.free, append([]int32(nil), s.Blocks.FreeHead...))
			r.maxrun = append(r.maxrun, append([]int32(nil), s.Blocks.MaxRun...))
			if !s.MarksClear() {
				t.Fatalf("workers=%d: %v has stale marks after sweep", workers, s)
			}
		}
		return r
	}
	seq := capture(0)
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par := capture(workers)
			if par.swept != seq.swept {
				t.Errorf("WordsSwept = %d, sequential %d", par.swept, seq.swept)
			}
			for i := range seq.mem {
				for off, w := range seq.mem[i] {
					if par.mem[i][off] != w {
						t.Fatalf("space %d diverges at %d: %#x != %#x",
							i, off, uint64(par.mem[i][off]), uint64(w))
					}
				}
				for b, fh := range seq.free[i] {
					if par.free[i][b] != fh {
						t.Fatalf("space %d block %d free head diverges: %d != %d",
							i, b, par.free[i][b], fh)
					}
				}
				for b, mr := range seq.maxrun[i] {
					if par.maxrun[i][b] != mr {
						t.Fatalf("space %d block %d max run diverges: %d != %d",
							i, b, par.maxrun[i][b], mr)
					}
				}
			}
		})
	}
}

// TestSweepSteadyStateZeroAllocs guards the sequential sweep path at both
// worker counts that select it: a reused Sweeper must not allocate per
// collection.
func TestSweepSteadyStateZeroAllocs(t *testing.T) {
	for _, workers := range []int{0, 1} {
		h, spaces := buildSweepFixture(47, workers)
		sw := NewSweeper(h)
		sw.Sweep(spaces...) // warm the flattening buffers
		// Pre-compute the re-mark schedule so the measured loop is pure
		// bitmap stores plus the sweep itself.
		markOffs := make([][]int, len(spaces))
		for i, s := range spaces {
			i := i
			WalkSpace(s, func(off int, hdr Word) bool {
				if HeaderType(hdr) != TFree && off%128 == 0 {
					markOffs[i] = append(markOffs[i], off)
				}
				return true
			})
		}
		if n := testing.AllocsPerRun(10, func() {
			for i, s := range spaces {
				for _, off := range markOffs[i] {
					s.SetMarkAt(off)
				}
			}
			sw.Sweep(spaces...)
		}); n != 0 {
			t.Errorf("workers=%d: steady-state sweep allocates %.1f times per run, want 0", workers, n)
		}
	}
}

// TestSweeperRejectsUnblockedSpace: the engine is only defined over spaces
// with block tables.
func TestSweeperRejectsUnblockedSpace(t *testing.T) {
	h := New()
	s := h.NewSpace("plain", 1024)
	defer func() {
		if recover() == nil {
			t.Error("sweeping a space without a block table did not panic")
		}
	}()
	NewSweeper(h).Sweep(s)
}

// TestFreeFromLinksBufferFillers: an evacuation target filled through
// allocation buffers has TFree fillers among its objects; returned to
// free-list form they are free runs the first-fit carve can reach (a one-word
// filler cannot hold a link, as ever), ahead of the run from the old bump
// pointer to the end, and the verifier accepts the table.
func TestFreeFromLinksBufferFillers(t *testing.T) {
	h := New()
	s := h.NewBlockedSpaceSpan("target", 40, 40)
	s.Reset()
	put := func(ty Type, words int) int {
		off, ok := s.Bump(words)
		if !ok {
			t.Fatal("fixture space too small")
		}
		s.Mem[off] = HeaderWord(ty, words-1)
		for i := 1; i < words; i++ {
			s.Mem[off+i] = NullWord
		}
		return off
	}
	put(TPair, 3)
	filler := put(TFree, 5)
	put(TPair, 3)
	put(TFree, 1)
	put(TPair, 3)
	s.Waste = 6
	used := s.Top

	s.FreeFrom(used)
	if got := []int{int(s.Blocks.FreeHead[0]), FreeNext(s, filler), FreeNext(s, used)}; got[0] != filler || got[1] != used || got[2] != NoFreeBlock {
		t.Errorf("free list is %v, want [%d %d -1]", got, filler, used)
	}
	if got, want := int(s.Blocks.MaxRun[0]), s.Cap()-used; got != want {
		t.Errorf("MaxRun = %d, want the tail run's %d", got, want)
	}
	if err := Verify(h, VerifySpec{Live: []*Space{s}}); err != nil {
		t.Errorf("verifier rejects the formatted target: %v", err)
	}
	if off, ok := s.AllocFromBlock(0, 5); !ok || off != filler {
		t.Errorf("a request the filler fits was placed at %d (%v), want %d", off, ok, filler)
	}
}
