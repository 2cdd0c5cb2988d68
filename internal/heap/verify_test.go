package heap

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// These tests seed one corruption class each into an otherwise healthy heap
// and assert that Verify diagnoses it as exactly that class (errors.Is
// against the sentinel) with a description naming the spot.

// verifyFixture is a heap with one live space holding a rooted chain of
// pairs and one scratch space, the smallest layout on which every invariant
// class can be violated.
type verifyFixture struct {
	h       *Heap
	live    *Space
	scratch *Space
	head    Word
	spec    VerifySpec
}

// buildChainCensus is buildChain with room for the hidden birth-stamp word
// when the heap has census tracking on.
func buildChainCensus(t testing.TB, h *Heap, s *Space, n int) Word {
	t.Helper()
	extra := h.ExtraWords()
	prev := NullWord
	for i := 0; i < n; i++ {
		off, ok := s.Bump(3 + extra)
		if !ok {
			t.Fatalf("space %q too small for %d pairs", s.Name, n)
		}
		w := h.InitObject(s, off, TPair, 2)
		s.Mem[off+1+extra] = FixnumWord(int64(i))
		s.Mem[off+2+extra] = prev
		prev = w
	}
	return prev
}

func newVerifyFixture(t *testing.T, opts ...Option) *verifyFixture {
	t.Helper()
	h := New(opts...)
	live := h.NewSpace("live", 256)
	scratch := h.NewSpace("scratch", 256)
	head := buildChainCensus(t, h, live, 8)
	h.GlobalWord(head)
	f := &verifyFixture{h: h, live: live, scratch: scratch, head: head,
		spec: VerifySpec{Live: []*Space{live}}}
	if err := Verify(h, f.spec); err != nil {
		t.Fatalf("fixture not clean: %v", err)
	}
	return f
}

func (f *verifyFixture) expect(t *testing.T, kind error, fragment string) {
	t.Helper()
	err := Verify(f.h, f.spec)
	if err == nil {
		t.Fatalf("corruption not detected, want %v", kind)
	}
	if !errors.Is(err, kind) {
		t.Fatalf("diagnosed %v, want %v", err, kind)
	}
	if fragment != "" && !strings.Contains(err.Error(), fragment) {
		t.Errorf("diagnosis %q does not mention %q", err, fragment)
	}
}

func TestVerifyMalformedHeader(t *testing.T) {
	f := newVerifyFixture(t)
	f.live.Mem[0] = FixnumWord(42) // clobber the first header
	f.expect(t, ErrMalformedHeader, "not a header")
}

func TestVerifyBadType(t *testing.T) {
	f := newVerifyFixture(t)
	f.live.Mem[0] = HeaderWord(numTypes+3, 2)
	f.expect(t, ErrMalformedHeader, "bad type")
}

func TestVerifyStaleForwarding(t *testing.T) {
	f := newVerifyFixture(t)
	// A forwarding pointer is what an evacuated object's header looks like
	// mid-collection; finding one afterwards means a space was left dirty.
	f.live.Mem[3] = PtrWord(f.scratch.ID, 0)
	f.expect(t, ErrStaleForwarding, "forwards to")
}

func TestVerifyStaleMark(t *testing.T) {
	f := newVerifyFixture(t)
	f.live.Mem[0] = SetMark(f.live.Mem[0])
	f.expect(t, ErrStaleMark, "mark bit")
}

func TestVerifyBlockOverrun(t *testing.T) {
	f := newVerifyFixture(t)
	f.live.Mem[0] = HeaderWord(TVector, f.live.Top+100)
	f.expect(t, ErrBlockOverrun, "overrun")
}

func TestVerifyDanglingPointerClasses(t *testing.T) {
	t.Run("unknown space", func(t *testing.T) {
		f := newVerifyFixture(t)
		f.live.Mem[2] = PtrWord(99, 0) // cdr slot of the first pair
		f.expect(t, ErrDanglingPointer, "unknown space")
	})
	t.Run("scratch space", func(t *testing.T) {
		f := newVerifyFixture(t)
		f.live.Mem[2] = PtrWord(f.scratch.ID, 0)
		f.expect(t, ErrDanglingPointer, "scratch")
	})
	t.Run("past bump pointer", func(t *testing.T) {
		f := newVerifyFixture(t)
		f.live.Mem[2] = PtrWord(f.live.ID, f.live.Top+3)
		f.expect(t, ErrDanglingPointer, "past the bump pointer")
	})
	t.Run("object interior", func(t *testing.T) {
		f := newVerifyFixture(t)
		f.live.Mem[2] = PtrWord(f.live.ID, 1) // payload of pair 0, not a start
		f.expect(t, ErrDanglingPointer, "middle of an object")
	})
	t.Run("free block", func(t *testing.T) {
		f := newVerifyFixture(t)
		f.live.Mem[3] = HeaderWord(TFree, 2) // kill the second pair
		f.live.Mem[5] = NullWord             // drop its stale chain pointer
		f.live.Mem[2] = PtrWord(f.live.ID, 3)
		f.expect(t, ErrDanglingPointer, "free block")
	})
	t.Run("root slot", func(t *testing.T) {
		f := newVerifyFixture(t)
		f.h.GlobalWord(PtrWord(f.scratch.ID, 0))
		f.expect(t, ErrDanglingPointer, "root slot")
	})
}

func TestVerifyBadCensusWord(t *testing.T) {
	t.Run("not a fixnum", func(t *testing.T) {
		f := newVerifyFixture(t, WithCensus())
		f.live.Mem[1] = NullWord // the hidden birth stamp of pair 0
		f.expect(t, ErrBadCensusWord, "not a fixnum")
	})
	t.Run("from the future", func(t *testing.T) {
		f := newVerifyFixture(t, WithCensus())
		f.live.Mem[1] = FixnumWord(int64(f.h.Now()) + 1000)
		f.expect(t, ErrBadCensusWord, "outside")
	})
}

func TestVerifyRemsetCompleteness(t *testing.T) {
	f := newVerifyFixture(t)
	// Every pair whose cdr is a pointer demands an entry; an empty set
	// violates the rule, a complete Has satisfies it.
	demanding := func(obj, val Word) bool { return IsPtr(val) }
	f.spec.Remsets = []RemsetRule{{Name: "all-ptrs", Needs: demanding, Has: func(Word) bool { return false }}}
	f.expect(t, ErrRemsetMissing, `rule "all-ptrs"`)

	f.spec.Remsets[0].Has = func(Word) bool { return true }
	if err := Verify(f.h, f.spec); err != nil {
		t.Fatalf("complete set rejected: %v", err)
	}
}

// blockTableFixture is a heap whose one live space is blocked (words long,
// in table blocks of span words), with block 0 swept to leave three free
// runs — at offsets 3 and 9 (three words each, between rooted pairs at 0, 6
// and 12) and the tail from 15 — so its free list has a head, a middle link
// and a last entry to corrupt. A block 1, where there is one, is one
// untouched maximal run.
func blockTableFixture(t *testing.T, words, span int) *verifyFixture {
	t.Helper()
	h := New()
	s := h.NewBlockedSpaceSpan("blocked", words, span)
	for i := 0; i < 5; i++ {
		off, ok := s.AllocFromBlock(0, 3)
		if !ok {
			t.Fatal("fixture block too small")
		}
		w := h.InitObject(s, off, TPair, 2)
		s.Mem[off+1], s.Mem[off+2] = FixnumWord(int64(i)), NullWord
		if i%2 == 0 {
			h.GlobalWord(w)
			s.SetMarkAt(off)
		}
	}
	sweepBlock(s, 0)
	if got := []int{int(s.Blocks.FreeHead[0]), FreeNext(s, 3), FreeNext(s, 9), FreeNext(s, 15)}; got[0] != 3 || got[1] != 9 || got[2] != 15 || got[3] != NoFreeBlock {
		t.Fatalf("fixture free list is %v, want [3 9 15 -1]", got)
	}
	f := &verifyFixture{h: h, live: s, spec: VerifySpec{Live: []*Space{s}}}
	if err := Verify(h, f.spec); err != nil {
		t.Fatalf("fixture not clean: %v", err)
	}
	return f
}

// TestVerifyBadBlockTable: first-fit placement trusts a swept block's free
// list and MaxRun without checking them, so each way they can be wrong is
// its own diagnosis — in a mark/sweep space of BlockWords blocks, and in a
// step of the non-predictive mark/sweep collector, whose table is one block
// of the step's (here odd) size. end is where block 0 ends.
func TestVerifyBadBlockTable(t *testing.T) {
	cases := []struct {
		name, fragment string
		corrupt        func(s *Space, end int)
	}{
		{"head leaves the block", "leaves the block", func(s *Space, end int) { s.Blocks.FreeHead[0] = int32(end) }},
		{"link leaves the block", "leaves the block", func(s *Space, end int) { SetFreeNext(s, 15, end) }},
		{"not address-ordered", "not address-ordered", func(s *Space, _ int) { SetFreeNext(s, 9, 3) }},
		{"links a live object", "non-free", func(s *Space, _ int) { s.Blocks.FreeHead[0] = 0 }},
		{"links an interior word", "not a block start", func(s *Space, _ int) { s.Blocks.FreeHead[0] = 1 }},
		{"last link is an interior word", "not a block start", func(s *Space, _ int) { SetFreeNext(s, 15, 20) }},
		{"omits a run", "not on the free list", func(s *Space, _ int) { s.Blocks.FreeHead[0] = 9 }},
		{"run longer than MaxRun", "exceeds MaxRun", func(s *Space, _ int) { s.Blocks.MaxRun[0] = 3 }},
		{"run straddles the boundary", "straddles", func(s *Space, end int) {
			// Grow block 0's tail run three words into block 1 and start
			// block 1's run after it, so the space still parses.
			s.Mem[15] = HeaderWord(TFree, end-15+3-1)
			s.Mem[end+3] = HeaderWord(TFree, end-3-1)
			SetFreeNext(s, end+3, NoFreeBlock)
			s.Blocks.FreeHead[1] = int32(end + 3)
			s.Blocks.MaxRun[0] = int32(end)
		}},
	}
	for _, table := range []struct {
		name        string
		words, span int
	}{
		{"blocks", 2 * BlockWords, BlockWords},
		{"step", 2*BlockWords - 23, 2*BlockWords - 23},
	} {
		for _, tc := range cases {
			if tc.fragment == "straddles" && table.span >= table.words {
				continue // a one-block table has no boundary to straddle
			}
			t.Run(table.name+"/"+tc.name, func(t *testing.T) {
				f := blockTableFixture(t, table.words, table.span)
				tc.corrupt(f.live, table.span)
				f.expect(t, ErrBadBlockTable, tc.fragment)
				if err := Check(f.h); !errors.Is(err, ErrBadBlockTable) {
					t.Errorf("Check diagnosed %v, want %v", err, ErrBadBlockTable)
				}
			})
		}
		t.Run(table.name+"/unswept block is exempt", func(t *testing.T) {
			f := blockTableFixture(t, table.words, table.span)
			f.live.Blocks.FreeHead[0] = 9
			// A block awaits its sweep with the survivors' marks still set:
			// the verifier reads the flag and takes unmarked for dead.
			f.live.Blocks.setUnswept(0)
			for _, off := range []int{0, 6, 12} {
				f.live.SetMarkAt(off)
			}
			if err := Verify(f.h, f.spec); err != nil {
				t.Fatalf("stale list of a block awaiting its sweep rejected: %v", err)
			}
		})
	}
}

// TestVerifyStrayMarkBit: the sweep reads every set bit of a block awaiting
// it as a survivor's header, and a mark in progress leaves bits the next
// sweep will read, so there a bit anywhere else is a diagnosis of its own —
// one inside a live pair, one on a free block, one past the survivors — and
// in a block already swept any bit at all is stale.
func TestVerifyStrayMarkBit(t *testing.T) {
	for _, tc := range []struct {
		name, fragment string
		marking        bool
		bit            func(end int) int
	}{
		{"inside a live pair, sweep pending", "not on the header", false, func(int) int { return 7 }},
		{"on a free block, sweep pending", "not on the header", false, func(int) int { return 3 }},
		{"inside a free run, sweep pending", "not on the header", false, func(int) int { return 20 }},
		{"inside a live pair, marking", "not on the header", true, func(int) int { return 1 }},
		{"in a swept block", "swept block", false, func(end int) int { return end + 5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := blockTableFixture(t, 2*BlockWords, BlockWords)
			if tc.marking {
				f.spec.MarkingActive = true
			} else {
				f.live.Blocks.setUnswept(0)
			}
			for _, off := range []int{0, 6, 12} {
				f.live.SetMarkAt(off)
			}
			if err := Verify(f.h, f.spec); err != nil {
				t.Fatalf("survivors' marks rejected: %v", err)
			}
			f.live.SetMarkAt(tc.bit(BlockWords))
			f.expect(t, ErrStaleMark, tc.fragment)
		})
	}
}

// TestVerifyEmptyLiveMeansAllSpaces: the default spec treats every space as
// live, so a pointer into any registered space is fine.
func TestVerifyEmptyLiveMeansAllSpaces(t *testing.T) {
	f := newVerifyFixture(t)
	buildChain(t, f.h, f.scratch, 2)
	if err := Verify(f.h, VerifySpec{}); err != nil {
		t.Fatalf("whole-heap spec rejected a healthy heap: %v", err)
	}
}

// TestVerifyErrorCap: a heap corrupted in many places reports at most
// maxVerifyErrors diagnoses rather than flooding the failure output, and
// reports the same ones on every call: the first objects in address order.
func TestVerifyErrorCap(t *testing.T) {
	h := New()
	live := h.NewSpace("live", 512)
	for i := 0; i < 40; i++ {
		off, _ := live.Bump(3)
		w := h.InitObject(live, off, TPair, 2)
		live.Mem[off+1] = PtrWord(99, 0) // dangling in every object
		live.Mem[off+2] = NullWord
		h.GlobalWord(w)
	}
	err := Verify(h, VerifySpec{})
	if err == nil {
		t.Fatal("corruptions not detected")
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("Verify did not return a joined error: %T", err)
	}
	errs := joined.Unwrap()
	if n := len(errs); n > maxVerifyErrors {
		t.Errorf("%d diagnoses reported, cap is %d", n, maxVerifyErrors)
	}
	for i, e := range errs {
		if want := fmt.Sprintf("object at %v off %d points", live, 3*i); !strings.Contains(e.Error(), want) {
			t.Errorf("diagnosis %d is %q, want the object at off %d", i, e, 3*i)
		}
	}
	if again := Verify(h, VerifySpec{}); again.Error() != err.Error() {
		t.Errorf("second call diagnosed differently:\n%v\nthen\n%v", err, again)
	}
}

// TestVerifyAllocsIndependentOfHeapSize: the verifier's own state is a
// fixed number of slices per space, so a heap a hundred times larger costs
// it no more Go allocations.
func TestVerifyAllocsIndependentOfHeapSize(t *testing.T) {
	allocs := func(pairs int) (verify, check float64) {
		h := New()
		var spaces []*Space
		for i := 0; i < 3; i++ {
			s := h.NewSpace("live", 3*pairs)
			h.GlobalWord(buildChain(t, h, s, pairs))
			spaces = append(spaces, s)
		}
		spec := VerifySpec{Live: spaces, Remsets: []RemsetRule{{Name: "all-ptrs",
			Needs: func(obj, val Word) bool { return IsPtr(val) },
			Has:   func(Word) bool { return true }}}}
		verify = testing.AllocsPerRun(5, func() {
			if err := Verify(h, spec); err != nil {
				t.Fatal(err)
			}
		})
		check = testing.AllocsPerRun(5, func() {
			if err := Check(h); err != nil {
				t.Fatal(err)
			}
		})
		return verify, check
	}
	smallV, smallC := allocs(100)
	bigV, bigC := allocs(10000)
	if bigV > smallV || bigC > smallC {
		t.Errorf("allocations grew with the heap: Verify %.0f -> %.0f, Check %.0f -> %.0f", smallV, bigV, smallC, bigC)
	}
}

// TestVerifyCollectorWithoutSpec: collectors that do not implement
// Verifiable still get the whole-heap catalog.
func TestVerifyCollectorWithoutSpec(t *testing.T) {
	h := New()
	live := h.NewSpace("live", 64)
	h.GlobalWord(buildChain(t, h, live, 2))
	if err := VerifyCollector(h, nil); err != nil {
		t.Fatalf("whole-heap verify failed: %v", err)
	}
	live.Mem[0] = FixnumWord(1)
	if err := VerifyCollector(h, nil); !errors.Is(err, ErrMalformedHeader) {
		t.Fatalf("got %v, want %v", err, ErrMalformedHeader)
	}
}

// TestVerifyDoesNotMutate: a verify pass over a corrupt heap must leave
// every word untouched, or it would mask the bug it found.
func TestVerifyDoesNotMutate(t *testing.T) {
	f := newVerifyFixture(t)
	f.live.Mem[2] = PtrWord(f.scratch.ID, 7)
	before := append([]Word(nil), f.live.Mem...)
	if err := Verify(f.h, f.spec); err == nil {
		t.Fatal("corruption not detected")
	}
	for i, w := range f.live.Mem {
		if before[i] != w {
			t.Fatalf("Verify mutated word %d: %#x -> %#x", i, uint64(before[i]), uint64(w))
		}
	}
}
