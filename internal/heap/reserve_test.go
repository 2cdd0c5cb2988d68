package heap

import (
	"errors"
	"slices"
	"testing"
)

// TestReservationReadsAsEmptySpace: a reservation has no memory, and every
// reader but the memory sees an empty space of its capacity — Cap, Free,
// Used, NumBlocks, the footprint, String, Reset, Check and Verify all answer
// as they do for the same space made with memory and emptied. Bump refuses
// it: only an evacuation enters a reservation, and that gives it memory
// first.
func TestReservationReadsAsEmptySpace(t *testing.T) {
	const words = 3*BlockWords + 17
	for _, blocked := range []bool{false, true} {
		made, reserved := New(), New()
		var m, r *Space
		if blocked {
			m = made.NewBlockedSpaceSpan("s", words, words)
			m.Reset()
			r = reserved.ReserveBlockedSpaceSpan("s", words, words)
		} else {
			m = made.NewSpace("s", words)
			r = reserved.ReserveSpace("s", words)
		}
		if r.Mem != nil || r.marks != nil || r.dirty != nil {
			t.Fatalf("blocked=%v: a reservation has memory: %d words, %d mark words, %d dirty words",
				blocked, len(r.Mem), len(r.marks), len(r.dirty))
		}
		if r.Cap() != m.Cap() || r.Free() != m.Free() || r.Used() != 0 || r.NumBlocks() != m.NumBlocks() ||
			r.BlocksReserved() != m.BlocksReserved() || reserved.FootprintWords() != made.FootprintWords() ||
			r.String() != m.String() {
			t.Errorf("blocked=%v: the reservation reads as %v (cap %d, free %d, %d blocks, footprint %d), the space as %v (cap %d, free %d, %d blocks, footprint %d)",
				blocked, r, r.Cap(), r.Free(), r.NumBlocks(), reserved.FootprintWords(),
				m, m.Cap(), m.Free(), m.NumBlocks(), made.FootprintWords())
		}
		if _, ok := r.Bump(1); ok {
			t.Errorf("blocked=%v: Bump carved a word out of a reservation", blocked)
		}
		r.Reset()
		r.ClearMarkBits()
		if r.Mem != nil || r.Cap() != words || !r.MarksClear() {
			t.Errorf("blocked=%v: Reset or ClearMarkBits changed the reservation: %v", blocked, r)
		}
		if blocked && (r.Blocks.FreeHead[0] != NoFreeBlock || r.Blocks.MaxRun[0] != 0 || r.sweepPending()) {
			t.Errorf("reserved table is not in bump form: head %d, MaxRun %d", r.Blocks.FreeHead[0], r.Blocks.MaxRun[0])
		}
		if err := Check(reserved); err != nil {
			t.Errorf("blocked=%v: Check: %v", blocked, err)
		}
		if err := Verify(reserved, VerifySpec{}); err != nil {
			t.Errorf("blocked=%v: Verify: %v", blocked, err)
		}
	}
}

// TestEvacuationBacksReservations: a reservation gets its memory, at exactly
// its capacity, when a run names it a target — through Begin, through
// BeginTenured's survivor targets, or as an Overflow space — and not before;
// one no run names stays without. Resize gives a reservation memory of the
// new size.
func TestEvacuationBacksReservations(t *testing.T) {
	h := New()
	from := h.NewSpace("from", 4096)
	h.GlobalWord(buildChain(t, h, from, 40))
	to := h.ReserveSpace("to", 2048)
	young := h.ReserveSpace("young", 1024)
	spill := h.ReserveSpace("spill", 512)
	idle := h.ReserveSpace("idle", 4096)
	tiny := h.ReserveSpace("tiny", 12) // 4 pairs: the rest overflows
	backed := func(s *Space, words int) {
		t.Helper()
		if len(s.Mem) != words || s.Cap() != words || len(s.marks) != (words+63)/64 {
			t.Fatalf("%v has %d words of memory and %d mark words, want %d", s, len(s.Mem), len(s.marks), words)
		}
	}

	e := NewEvacuator(h, nil)
	e.Overflow = func(int) *Space { return spill }
	e.SetFrom(from)
	e.Begin(tiny)
	backed(tiny, 12)
	if spill.Mem != nil {
		t.Fatal("an Overflow space got memory before the run asked for it")
	}
	e.Run()
	backed(spill, 512)
	if tiny.Top != 12 || spill.Top != 3*(40-4) || e.ObjectsCopied != 40 {
		t.Fatalf("copied %d objects: %d words into tiny, %d into spill", e.ObjectsCopied, tiny.Top, spill.Top)
	}
	if to.Mem != nil || young.Mem != nil || idle.Mem != nil {
		t.Fatal("a reservation no run named got memory")
	}

	e.Overflow = nil
	e.SetFrom(tiny, spill)
	e.BeginTenured(2, []*Space{young}, to)
	backed(young, 1024)
	backed(to, 2048)
	e.Run()
	if young.Top != 3*40 {
		t.Fatalf("the survivor target holds %d words, want all 40 pairs", young.Top)
	}
	if idle.Mem != nil {
		t.Fatal("a reservation no run named got memory")
	}
	idle.Resize(100)
	backed(idle, 100)
}

// TestIdentityBeforeBacking: TrackIdentity on a heap whose to-space is still
// a reservation, as the trace recorder calls it after the collector is
// built. The first collection backs the to-space with identity entries, and
// the table is whole after it: every survivor keeps its ordinal at its new
// address. A reservation made under identity is covered the same way.
func TestIdentityBeforeBacking(t *testing.T) {
	h := New()
	a := &movingAlloc{h: h, from: h.NewSpace("A", 4096), to: h.ReserveSpace("B", 4096)}
	h.SetAllocator(a)
	h.TrackIdentity()
	if a.to.ids == nil || len(a.to.ids) != 0 {
		t.Fatalf("TrackIdentity gave the reservation %d entries (nil: %v), want an empty table", len(a.to.ids), a.to.ids == nil)
	}
	late := h.ReserveSpace("C", 64)
	if late.ids == nil || late.Mem != nil {
		t.Fatal("a reservation made under identity has no table, or has memory")
	}

	s := h.Scope()
	defer s.Close()
	var live []Ref
	for i := 0; i < 50; i++ {
		h.Cons(h.Fix(-1), h.Null()) // garbage between the survivors
		live = append(live, h.Cons(h.Fix(int64(i)), h.Null()))
	}
	a.flip()
	if len(a.from.ids) != 4096 {
		t.Fatalf("the backed to-space has %d identity entries, want 4096", len(a.from.ids))
	}
	checkIdentity(t, h, a.from)
	for i, r := range live {
		if id, ok := h.IDOf(h.Get(r)); !ok || id != uint64(2*i+1) {
			t.Fatalf("survivor %d: IDOf = #%d, %v; want #%d", i, id, ok, 2*i+1)
		}
	}
	late.Resize(64)
	if len(late.ids) != 64 {
		t.Fatalf("a tracked reservation resized to 64 words has %d identity entries", len(late.ids))
	}
}

// TestListedReservationReadsAsFreshStep: a blocked reservation formatted by
// FreeFrom(0) stands for the space NewBlockedSpaceSpan makes, one free run
// per block, and every reader but the memory sees that space: Top, Free,
// the table's bounds, the sweep's count, the walks and Check. The sweep
// leaves it reserved; the verifier holds its table to that form. The first
// carve that fits gives it its memory, on the tracked identity table too,
// and lands where it lands in the fresh space; FreeFrom above 0 on a
// reservation has nothing to keep and panics.
func TestListedReservationReadsAsFreshStep(t *testing.T) {
	const words, span = 2*BlockWords + 40, BlockWords
	made, reserved := New(), New()
	reserved.TrackIdentity()
	m := made.NewBlockedSpaceSpan("s", words, span)
	r := reserved.ReserveBlockedSpaceSpan("s", words, span)
	r.FreeFrom(0)
	if !r.Reserved() || r.Mem != nil || r.Top != m.Top || r.Free() != m.Free() || r.String() != m.String() ||
		!slices.Equal(r.Blocks.MaxRun, m.Blocks.MaxRun) || LiveWords(r) != 0 {
		t.Fatalf("the reservation reads as %v (Top %d, MaxRun %v), the fresh space as %v (Top %d, MaxRun %v)",
			r, r.Top, r.Blocks.MaxRun, m, m.Top, m.Blocks.MaxRun)
	}
	for _, b := range r.Blocks.FreeHead {
		if b != NoFreeBlock {
			t.Fatalf("a reservation's list starts at %d; it has no words to link", b)
		}
	}
	if err := Check(reserved); err != nil {
		t.Fatal(err)
	}
	if got, want := NewSweeper(reserved).Sweep(r), NewSweeper(made).Sweep(m); got != want || !r.Reserved() {
		t.Fatalf("the sweep counted %d words of the reservation, %d of the fresh space; reserved after: %v", got, want, r.Reserved())
	}
	r.Blocks.MaxRun[1]--
	if err := Check(reserved); !errors.Is(err, ErrBadBlockTable) {
		t.Fatalf("a reservation whose bound is not its run: Check says %v", err)
	}
	r.Blocks.MaxRun[1]++

	got, ok := r.AllocFromBlock(1, 3)
	want, _ := m.AllocFromBlock(1, 3)
	if !ok || got != want || r.Reserved() || !slices.Equal(r.Mem, m.Mem) || len(r.ids) != words ||
		!slices.Equal(r.Blocks.FreeHead, m.Blocks.FreeHead) || !slices.Equal(r.Blocks.MaxRun, m.Blocks.MaxRun) {
		t.Fatalf("the first carve landed at %d (%v), the fresh space's at %d; backed %v with %d identity entries", got, ok, want, r, len(r.ids))
	}

	defer func() {
		if recover() == nil {
			t.Error("FreeFrom(1) on a reservation did not panic")
		}
	}()
	reserved.ReserveBlockedSpaceSpan("t", words, span).FreeFrom(1)
}
