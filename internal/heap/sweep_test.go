package heap

import (
	"fmt"
	"math/rand"
	"slices"
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

// sweepBlockReference is sweepBlock's specification: a sweep that walks
// every object of block b of s. Survivors stay put, runs of dead objects and
// old free blocks merge into maximal TFree blocks linked onto the block's
// free list in address order, and the block's mark bits are cleared. It
// returns the words examined (always the full block).
func sweepBlockReference(s *Space, b int) int {
	lo := b * s.Blocks.Span
	hi := min(lo+s.Blocks.Span, s.Top)
	head := NoFreeBlock
	tail := NoFreeBlock
	lastFree := NoFreeBlock
	maxRun := 0
	link := func(off int) {
		if HeaderSize(s.Mem[off]) == 0 {
			return // 1-word block: cannot hold a link, stays unlinked
		}
		SetFreeNext(s, off, NoFreeBlock)
		if head == NoFreeBlock {
			head = off
		} else {
			SetFreeNext(s, tail, off)
		}
		tail = off
	}
	for off := lo; off < hi; {
		hdr := s.Mem[off]
		n := ObjWords(hdr)
		if HeaderType(hdr) != TFree && s.MarkedAt(off) {
			lastFree = NoFreeBlock
			off += n
			continue
		}
		if lastFree != NoFreeBlock {
			grown := ObjWords(s.Mem[lastFree]) + n
			wasUnlinked := HeaderSize(s.Mem[lastFree]) == 0
			s.Mem[lastFree] = HeaderWord(TFree, grown-1)
			SetFreeNext(s, lastFree, NoFreeBlock)
			if wasUnlinked {
				link(lastFree) // growing past 1 word makes it linkable
			}
			if grown > maxRun {
				maxRun = grown
			}
		} else {
			s.Mem[off] = HeaderWord(TFree, n-1)
			link(off)
			lastFree = off
			if n > maxRun {
				maxRun = n
			}
		}
		off += n
	}
	s.Blocks.FreeHead[b] = int32(head)
	s.Blocks.MaxRun[b] = int32(maxRun)
	s.clearBlockMarks(b)
	return hi - lo
}

// sweepLayout fills every table block of s, from its start to its end (Top
// for the final one, which may be partial), with a random tiling of
// survivors (marked), dead objects and old free blocks, one-word ones
// included, whose old links point anywhere: the sweep may read none of the
// dead storage. Each block draws its own share of survivors, from none to
// all, so runs of dead storage range from one word to the whole block.
func sweepLayout(rng *rand.Rand, s *Space) {
	bt := s.Blocks
	for b := range bt.FreeHead {
		lo := b * bt.Span
		hi := min(lo+bt.Span, s.Top)
		live := []int{0, 10, 50, 90, 100}[rng.Intn(5)]
		for off := lo; off < hi; {
			n := min(hi-off, 1+rng.Intn(12))
			switch {
			case rng.Intn(5) == 0:
				s.Mem[off] = HeaderWord(TFree, n-1)
				if n > 1 {
					s.Mem[off+1] = FixnumWord(int64(rng.Intn(s.Cap())))
				}
			case rng.Intn(100) < live:
				fillObject(s, off, n, TVector)
				s.SetMarkAt(off)
			default:
				fillObject(s, off, n, TPair)
			}
			off += n
		}
		bt.FreeHead[b] = int32(rng.Intn(hi-lo) + lo)
		bt.MaxRun[b] = int32(rng.Intn(bt.Span))
	}
}

func fillObject(s *Space, off, n int, t Type) {
	s.Mem[off] = HeaderWord(t, n-1)
	for i := 1; i < n; i++ {
		s.Mem[off+i] = FixnumWord(int64(off + i))
	}
}

// churn is the mutator between two sweeps: it carves random requests out
// of the swept lists, as the collectors do, and then marks a random share
// of the space's non-free objects.
func churn(rng *rand.Rand, s *Space) {
	for i := 0; i < s.Cap()/8; i++ {
		b := rng.Intn(len(s.Blocks.FreeHead))
		n := 1 + rng.Intn(16)
		if off, ok := s.AllocFromBlock(b, n); ok {
			fillObject(s, off, n, TVector)
		}
	}
	live := rng.Intn(101)
	WalkSpace(s, func(off int, hdr Word) bool {
		if HeaderType(hdr) != TFree && rng.Intn(100) < live {
			s.SetMarkAt(off)
		}
		return true
	})
}

// sameSweep fails unless the two spaces hold the same words, free lists,
// bounds and mark bitmaps.
func sameSweep(t *testing.T, when string, got, want *Space) {
	t.Helper()
	switch {
	case !slices.Equal(got.Mem, want.Mem):
		for i := range got.Mem {
			if got.Mem[i] != want.Mem[i] {
				t.Fatalf("%s: word %d is %#x, the header walk leaves %#x", when, i, uint64(got.Mem[i]), uint64(want.Mem[i]))
			}
		}
	case !slices.Equal(got.Blocks.FreeHead, want.Blocks.FreeHead):
		t.Fatalf("%s: free-list heads %v, the header walk leaves %v", when, got.Blocks.FreeHead, want.Blocks.FreeHead)
	case !slices.Equal(got.Blocks.MaxRun, want.Blocks.MaxRun):
		t.Fatalf("%s: MaxRun %v, the header walk leaves %v", when, got.Blocks.MaxRun, want.Blocks.MaxRun)
	case !slices.Equal(got.marks, want.marks) || !slices.Equal(got.dirty, want.dirty):
		t.Fatalf("%s: mark bitmaps differ from the header walk's", when)
	case !slices.Equal(got.Blocks.Unswept, want.Blocks.Unswept):
		t.Fatalf("%s: pending sweeps differ from the header walk's", when)
	}
}

// TestSweepMatchesHeaderWalk holds the bitmap sweep to the header walk it
// replaced (sweepBlockReference), word for word, over randomized blocks:
// after each of several sweeps of the same space, with a mutator carving
// and marking in between. Three layouts: a mark/sweep space of BlockWords
// blocks with a partial final block, an npms step (one block spanning the
// space, of a length no multiple of 64), and a space of BlockWords blocks
// swept lazily, one block at a time, in random order.
func TestSweepMatchesHeaderWalk(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, layout := range []string{"blocks", "step", "lazy"} {
			t.Run(fmt.Sprintf("%s/seed%d", layout, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				words, span := 9*BlockWords+1+rng.Intn(BlockWords-1), BlockWords
				if layout == "step" {
					words = 1000 + rng.Intn(4000)
					if words%64 == 0 {
						words++
					}
					span = words
				}
				h := New()
				got := h.NewBlockedSpaceSpan("bitmap", words, span)
				want := h.NewBlockedSpaceSpan("header-walk", words, span)
				sweepLayout(rng, got)
				copy(want.Mem, got.Mem)
				copy(want.Blocks.FreeHead, got.Blocks.FreeHead)
				copy(want.Blocks.MaxRun, got.Blocks.MaxRun)
				copy(want.marks, got.marks)
				copy(want.dirty, got.dirty)
				sw := NewSweeper(h)
				for round := 0; round < 4; round++ {
					if round > 0 {
						// Both sides churn from the same draws.
						state := rng.Int63()
						churn(rand.New(rand.NewSource(state)), got)
						churn(rand.New(rand.NewSource(state)), want)
						sameSweep(t, fmt.Sprintf("round %d before the sweep", round), got, want)
					}
					if layout != "lazy" {
						if n, wantN := sw.Sweep(got), sweepReference(want); n != wantN {
							t.Fatalf("round %d: swept %d words, the header walk %d", round, n, wantN)
						}
						sameSweep(t, fmt.Sprintf("round %d", round), got, want)
						continue
					}
					sw.BeginLazy(got)
					for b := range want.Blocks.FreeHead {
						want.Blocks.setUnswept(b)
					}
					for _, b := range rng.Perm(len(got.Blocks.FreeHead)) {
						want.Blocks.clearUnswept(b)
						if n, wantN := sw.EnsureSwept(got, b), sweepBlockReference(want, b); n != wantN {
							t.Fatalf("round %d block %d: swept %d words, the header walk %d", round, b, n, wantN)
						}
						sameSweep(t, fmt.Sprintf("round %d block %d", round, b), got, want)
					}
				}
				if err := Verify(h, VerifySpec{}); err != nil {
					t.Fatalf("swept spaces fail the verifier: %v", err)
				}
			})
		}
	}
}

// sweepReference sweeps every block of s by the header walk.
func sweepReference(s *Space) uint64 {
	var swept uint64
	for b := range s.Blocks.FreeHead {
		swept += uint64(sweepBlockReference(s, b))
	}
	return swept
}

// BenchmarkSweep times the block sweep alone, in ns per table block, at
// three shares of surviving three-word pairs: on a space of 64 BlockWords
// blocks, and on one npms-style step whose one block spans 64 BlockWords of
// storage. Every iteration restores the same unswept image and marks
// outside the timer, so each sweep meets the dead objects a collection
// leaves, not the runs the previous sweep coalesced.
func BenchmarkSweep(b *testing.B) {
	const words = 64 * BlockWords
	for _, layout := range []struct {
		name string
		span int
	}{{"blocks", BlockWords}, {"step", words}} {
		for _, live := range []int{10, 50, 90} {
			b.Run(fmt.Sprintf("%s/live%d", layout.name, live), func(b *testing.B) {
				h := New()
				s := h.NewBlockedSpaceSpan("bench", words, layout.span)
				rng := rand.New(rand.NewSource(int64(live)))
				for blk := range s.Blocks.FreeHead {
					for {
						off, ok := s.AllocFromBlock(blk, 3)
						if !ok {
							break
						}
						fillObject(s, off, 3, TPair)
						if rng.Intn(100) < live {
							s.SetMarkAt(off)
						}
					}
				}
				mem := slices.Clone(s.Mem)
				marks, dirty := slices.Clone(s.marks), slices.Clone(s.dirty)
				sw := NewSweeper(h)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(s.Mem, mem)
					copy(s.marks, marks)
					copy(s.dirty, dirty)
					b.StartTimer()
					sw.Sweep(s)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.Blocks.FreeHead)), "ns/block")
			})
		}
	}
}
