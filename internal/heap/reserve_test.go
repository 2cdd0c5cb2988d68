package heap

import "testing"

// TestReservationReadsAsEmptySpace: a reservation has no memory, and every
// reader but the memory sees an empty space of its capacity — Cap, Free,
// Used, NumBlocks, the footprint, String, Reset, Check and Verify all answer
// as they do for the same space made with memory and emptied. Bump and
// AllocFromBlock refuse it: whoever first puts words into a reservation
// gives it memory first. The sweep counts a blocked reservation's words up
// to its capacity, as for the fresh step it stands for, and leaves it
// reserved.
func TestReservationReadsAsEmptySpace(t *testing.T) {
	const words = 3*BlockWords + 17
	for _, blocked := range []bool{false, true} {
		made, reserved := New(), New()
		var m, r *Space
		if blocked {
			m = made.NewBlockedSpaceSpan("s", words, BlockWords)
			m.Reset()
			r = reserved.ReserveBlockedSpaceSpan("s", words, BlockWords)
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
		if blocked {
			if _, ok := r.AllocFromBlock(0, 1); ok {
				t.Error("AllocFromBlock carved a word out of a reservation")
			}
			if got := NewSweeper(reserved).Sweep(r); got != words || !r.Reserved() {
				t.Errorf("the sweep counted %d words of the reservation, want %d; reserved after: %v", got, words, r.Reserved())
			}
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
