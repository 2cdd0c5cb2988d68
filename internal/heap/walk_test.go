package heap

import "testing"

func TestWalkSpaceVisitsEveryBlockInOrder(t *testing.T) {
	h := New()
	s := h.NewSpace("walk", 64)
	buildChain(t, h, s, 3) // pairs at 0, 3, 6
	// A free block and a raw object complete the block zoo.
	off, _ := s.Bump(4)
	s.Mem[off] = HeaderWord(TFree, 3)
	fOff, _ := s.Bump(2)
	h.InitObject(s, fOff, TFlonum, 1)

	var offs []int
	var types []Type
	WalkSpace(s, func(o int, hdr Word) bool {
		offs = append(offs, o)
		types = append(types, HeaderType(hdr))
		return true
	})
	wantOffs := []int{0, 3, 6, 9, 13}
	wantTypes := []Type{TPair, TPair, TPair, TFree, TFlonum}
	if len(offs) != len(wantOffs) {
		t.Fatalf("visited %v, want %v", offs, wantOffs)
	}
	for i := range wantOffs {
		if offs[i] != wantOffs[i] || types[i] != wantTypes[i] {
			t.Errorf("block %d: (%d, %v), want (%d, %v)", i, offs[i], types[i], wantOffs[i], wantTypes[i])
		}
	}
}

func TestWalkSpaceEarlyStop(t *testing.T) {
	h := New()
	s := h.NewSpace("walk", 64)
	buildChain(t, h, s, 5)
	n := 0
	WalkSpace(s, func(int, Word) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("visited %d blocks after stop, want 2", n)
	}
}

func TestWalkSpacePanicsOnCorruptSpace(t *testing.T) {
	h := New()
	s := h.NewSpace("walk", 64)
	buildChain(t, h, s, 2)
	s.Mem[3] = FixnumWord(9)
	defer func() {
		if recover() == nil {
			t.Error("WalkSpace did not panic on a non-header word")
		}
	}()
	WalkSpace(s, func(int, Word) bool { return true })
}

func TestScanObjectSkipsRawPayloads(t *testing.T) {
	h := New()
	s := h.NewSpace("scan", 64)
	pOff, _ := s.Bump(3)
	h.InitObject(s, pOff, TPair, 2)
	fOff, _ := s.Bump(2)
	h.InitObject(s, fOff, TFlonum, 1)
	// Flonum bits can collide with the pointer tag; ScanObject must never
	// show them to a visitor.
	s.Mem[fOff+1] = Word(0xdeadbeef)<<2 | TagPtr

	count := func(off int) int {
		n := 0
		ScanObject(s, off, func(*Word) { n++ })
		return n
	}
	if got := count(pOff); got != 2 {
		t.Errorf("pair scanned %d slots, want 2", got)
	}
	if got := count(fOff); got != 0 {
		t.Errorf("flonum scanned %d slots, want 0", got)
	}
}

func TestScanObjectIncludesCensusWord(t *testing.T) {
	h := New(WithCensus())
	s := h.NewSpace("scan", 64)
	off, _ := s.Bump(4)
	h.InitObject(s, off, TPair, 2)
	n := 0
	ScanObject(s, off, func(slot *Word) {
		if n == 0 && !IsFixnum(*slot) {
			t.Error("first visited slot should be the fixnum birth stamp")
		}
		n++
	})
	if n != 3 {
		t.Errorf("scanned %d slots, want 3 (stamp + car + cdr)", n)
	}
}

func TestLiveWordsExcludesFreeBlocks(t *testing.T) {
	h := New()
	s := h.NewSpace("live", 64)
	buildChain(t, h, s, 2) // 6 live words
	off, _ := s.Bump(5)
	s.Mem[off] = HeaderWord(TFree, 4)
	if got := LiveWords(s); got != 6 {
		t.Errorf("LiveWords = %d, want 6", got)
	}
}

// TestPointsInto: the one "does this object hold a pointer into the region"
// scan. Each row lays an object out by hand — type, payload words — on a heap
// with or without the census word, and names the pointer targets the
// predicate accepts; want is the answer and calls how many pointers the
// predicate was shown before the scan stopped.
func TestPointsInto(t *testing.T) {
	const near, far = SpaceID(7), SpaceID(9) // the predicate accepts pointers into far
	toNear, toFar := PtrWord(near, 4), PtrWord(far, 12)
	for _, tc := range []struct {
		name    string
		census  bool
		typ     Type
		payload []Word
		want    bool
		calls   int
	}{
		{"pair of immediates", false, TPair, []Word{FixnumWord(1), NullWord}, false, 0},
		{"pair, cdr into the region", false, TPair, []Word{FixnumWord(1), toFar}, true, 1},
		{"pair, pointers elsewhere only", false, TPair, []Word{toNear, toNear}, false, 2},
		{"pair, car elsewhere and cdr into the region", false, TPair, []Word{toNear, toFar}, true, 2},
		{"box into the region", false, TBox, []Word{toFar}, true, 1},
		{"empty vector", false, TVector, nil, false, 0},
		{"vector, one slot of many into the region", false, TVector, []Word{NullWord, toNear, FixnumWord(3), toFar, toNear}, true, 2},
		{"vector stops at the first hit", false, TVector, []Word{toFar, toFar, toFar, toFar}, true, 1},
		{"flonum whose bits read as a pointer into the region", false, TFlonum, []Word{toFar}, false, 0},
		{"bytevector whose bytes read as pointers into the region", false, TBytevec, []Word{toFar, toFar, toFar}, false, 0},
		{"free block over a dead pair's words", false, TFree, []Word{FixnumWord(NoFreeBlock), toFar}, false, 0},
		{"census word before immediates", true, TPair, []Word{FixnumWord(1), NullWord}, false, 0},
		{"census word before a pointer into the region", true, TPair, []Word{NullWord, toFar}, true, 1},
		{"census word before a raw payload", true, TFlonum, []Word{toFar}, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts []Option
			if tc.census {
				opts = append(opts, WithCensus())
			}
			h := New(opts...)
			s := h.NewSpace("objects", 64)
			s.Bump(5) // the object does not sit at offset 0
			off, _ := s.Bump(1 + h.ExtraWords() + len(tc.payload))
			if tc.typ == TFree {
				s.Mem[off] = HeaderWord(TFree, len(tc.payload))
			} else {
				h.InitObject(s, off, tc.typ, len(tc.payload))
			}
			copy(s.Mem[off+1+h.ExtraWords():], tc.payload)
			next, _ := s.Bump(3) // a neighbour whose words must not be read
			h.InitObject(s, next, TPair, 2)
			s.Mem[next+1+h.ExtraWords()] = toFar

			calls := 0
			pred := func(w Word) bool {
				calls++
				if !IsPtr(w) {
					t.Errorf("the predicate was shown %#x, which is not a pointer", uint64(w))
				}
				return PtrSpace(w) == far
			}
			if got := PointsInto(s, off, pred); got != tc.want || calls != tc.calls {
				t.Errorf("PointsInto = %v after %d predicate calls, want %v after %d", got, calls, tc.want, tc.calls)
			}
			if tc.census && !IsFixnum(s.Mem[off+1]) {
				t.Fatal("fixture: the census word is not a fixnum")
			}
		})
	}
}

// TestPointsIntoDoesNotAllocate: with the predicate bound once, as every
// collector binds it, the scan touches no Go heap — the guard the collectors'
// own steady-state AllocsPerRun tests rest on.
func TestPointsIntoDoesNotAllocate(t *testing.T) {
	h := New()
	s := h.NewSpace("objects", 4096)
	buildChain(t, h, s, 1000)
	inSpace := func(w Word) bool { return PtrSpace(w) == s.ID }
	hits := 0
	if allocs := testing.AllocsPerRun(20, func() {
		for off := 0; off < s.Top; off += ObjWords(s.Mem[off]) {
			if PointsInto(s, off, inSpace) {
				hits++
			}
		}
	}); allocs != 0 {
		t.Errorf("PointsInto allocates %.1f Go objects per 1000 objects scanned", allocs)
	}
	if hits != 21*999 {
		t.Errorf("%d hits over 21 passes, want 999 each: every pair but the first points at its predecessor", hits)
	}
}
