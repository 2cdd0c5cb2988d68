package heap

import (
	"math/rand"
	"testing"
)

// TestBitmapMatchesHeaderOracle drives the side mark bitmap against the
// retained header-bit helpers (Marked/SetMark/ClearMark on a shadow copy of
// the headers) under randomized alloc/mark schedules: every object's bitmap
// state must agree with the oracle after every step, and a full ClearMarks
// must restore MarksClear.
func TestBitmapMatchesHeaderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 20; round++ {
		h := New()
		s := h.NewBlockedSpace("oracle", 4*BlockWords+177)

		// Random allocation schedule: carve objects of random size out of
		// random blocks until a stretch of failures, leaving a mix of
		// objects, free blocks, and one-word slack.
		var offs []int
		oracle := map[int]Word{} // off -> shadow header word
		for misses := 0; misses < 32; {
			b := rng.Intn(s.NumBlocks())
			n := 1 + rng.Intn(12)
			off, ok := s.AllocFromBlock(b, n)
			if !ok {
				misses++
				continue
			}
			hdr := HeaderWord(TVector, n-1)
			s.Mem[off] = hdr
			for i := 1; i < n; i++ {
				s.Mem[off+i] = FixnumWord(int64(off + i))
			}
			offs = append(offs, off)
			oracle[off] = hdr
		}
		if len(offs) < 10 {
			t.Fatalf("round %d: allocation schedule produced only %d objects", round, len(offs))
		}

		check := func(when string) {
			t.Helper()
			for _, off := range offs {
				if s.MarkedAt(off) != Marked(oracle[off]) {
					t.Fatalf("round %d, %s: off %d bitmap=%v oracle=%v",
						round, when, off, s.MarkedAt(off), Marked(oracle[off]))
				}
			}
		}

		for step := 0; step < 200; step++ {
			off := offs[rng.Intn(len(offs))]
			s.SetMarkAt(off)
			oracle[off] = SetMark(oracle[off])
			check("after step")
		}

		ClearMarks(s)
		for off := range oracle {
			oracle[off] = ClearMark(oracle[off])
		}
		check("after ClearMarks")
		if !s.MarksClear() {
			t.Fatalf("round %d: MarksClear false after ClearMarks", round)
		}
		// The bitmap never touched the headers: the space must still parse
		// with the original header words.
		WalkSpace(s, func(off int, hdr Word) bool {
			if want, ok := oracle[off]; ok && hdr != ClearMark(want) {
				t.Fatalf("round %d: header at %d changed: %#x", round, off, uint64(hdr))
			}
			return true
		})
	}
}

// TestClearMarksIsPerBlock pins the satellite fix for the old O(whole-space)
// unmark pass: marking one object in a huge space and clearing must not
// touch the other blocks' bitmap words. We can't observe stores directly, so
// we pin the dirty-summary contract: after ClearMarks the summary is empty
// and a second ClearMarks finds nothing to do (MarksClear scans prove the
// bitmap truly cleared either way).
func TestClearMarksIsPerBlock(t *testing.T) {
	h := New()
	s := h.NewSpace("wide", 512*BlockWords)
	s.Mem[5*BlockWords+7] = HeaderWord(TPair, 2)
	s.SetMarkAt(5*BlockWords + 7)
	if s.MarksClear() {
		t.Fatal("mark did not land in the bitmap")
	}
	ClearMarks(s)
	if !s.MarksClear() {
		t.Fatal("ClearMarks left a stale bit")
	}
}

// TestClearMarksSteadyStateZeroAllocs guards the per-block unmark path: a
// mark/clear cycle over a populated space must not allocate.
func TestClearMarksSteadyStateZeroAllocs(t *testing.T) {
	h := New()
	s := h.NewBlockedSpace("guard", 8*BlockWords)
	var offs []int
	for b := 0; b < s.NumBlocks(); b++ {
		for {
			off, ok := s.AllocFromBlock(b, 4)
			if !ok {
				break
			}
			s.Mem[off] = HeaderWord(TVector, 3)
			offs = append(offs, off)
		}
	}
	marked := 0
	if n := testing.AllocsPerRun(20, func() {
		for _, off := range offs {
			s.SetMarkAt(off)
		}
		ClearMarks(s)
		marked = len(offs)
	}); n != 0 {
		t.Errorf("mark+ClearMarks cycle allocates %.1f times per run, want 0", n)
	}
	if marked == 0 || !s.MarksClear() {
		t.Fatalf("guard did not measure real work: %d objects", marked)
	}
}

// TestResizeTracksBitmaps: growing a space through Resize must size the
// bitmaps to the new capacity so marks at high offsets land.
func TestResizeTracksBitmaps(t *testing.T) {
	h := New()
	s := h.NewSpace("grow", 256)
	s.Resize(64 * BlockWords)
	off := 63*BlockWords + 11
	s.Mem[off] = HeaderWord(TPair, 2)
	s.SetMarkAt(off)
	if !s.MarkedAt(off) {
		t.Fatal("mark at high offset lost after Resize")
	}
	ClearMarks(s)
	if !s.MarksClear() {
		t.Fatal("ClearMarks after Resize left a stale bit")
	}
}
