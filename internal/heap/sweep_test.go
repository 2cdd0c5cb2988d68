package heap

import (
	"math/rand"
	"testing"
)

// buildSweepFixture populates a fresh heap with blocked spaces holding a
// deterministic pseudo-random mix of objects, then marks a deterministic
// subset. Two calls with the same seed produce bit-identical pre-sweep
// states, which is what lets the lazy-sweep tests compare sweeps word for
// word.
func buildSweepFixture(seed int64) (*Heap, []*Space) {
	h := New()
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

// TestSweepSteadyStateZeroAllocs guards the sweep path: a reused Sweeper
// must not allocate per collection.
func TestSweepSteadyStateZeroAllocs(t *testing.T) {
	h, spaces := buildSweepFixture(47)
	sw := NewSweeper(h)
	sw.Sweep(spaces...)
	// Pre-compute the re-mark schedule so the measured loop is pure bitmap
	// stores plus the sweep itself.
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
		t.Errorf("steady-state sweep allocates %.1f times per run, want 0", n)
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
