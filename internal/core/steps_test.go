package core

import (
	"slices"
	"testing"

	"rdgc/internal/heap"
)

func TestNewStepsValidation(t *testing.T) {
	h := heap.New()
	defer func() {
		if recover() == nil {
			t.Error("NewSteps with k=1 did not panic")
		}
	}()
	NewSteps(h, 1, 128)
}

func TestSetJClamps(t *testing.T) {
	h := heap.New()
	st := NewSteps(h, 4, 128)
	st.SetJ(-3)
	if st.J() != 0 {
		t.Errorf("J = %d after SetJ(-3)", st.J())
	}
	st.SetJ(99)
	if st.J() != 3 {
		t.Errorf("J = %d after SetJ(99), want k-1=3", st.J())
	}
}

func TestBumpDescends(t *testing.T) {
	h := heap.New()
	st := NewSteps(h, 3, 8)
	// Every step starts a reservation, step 3 (position 2), where the
	// cursor starts, too: Bump stops on it rather than descend past it, and
	// the ladder gives it its memory, at its capacity, and bumps there.
	// Fill it with two 4-word blocks; the next bump stops on position 1 in
	// the same way, and the ladder lands there.
	collect := func() { t.Fatal("the ladder collected with steps to spare") }
	if _, _, ok := st.Bump(4); ok || st.AllocIdx() != 2 || !st.Step(2).Reserved() {
		t.Fatalf("Bump into the reserved step 3: ok %v, cursor %d, %v", ok, st.AllocIdx(), st.Step(2))
	}
	s1, _ := st.Alloc(4, collect, false)
	if st.PosOf(heap.PtrWord(s1.ID, 0)) != 2 || len(s1.Mem) != 8 {
		t.Fatalf("first bump went to position %d, %v with %d words of memory",
			st.PosOf(heap.PtrWord(s1.ID, 0)), s1, len(s1.Mem))
	}
	st.Bump(4)
	if _, _, ok := st.Bump(4); ok || st.AllocIdx() != 1 || !st.Step(1).Reserved() {
		t.Fatalf("Bump into the reserved step 2: ok %v, cursor %d, %v", ok, st.AllocIdx(), st.Step(1))
	}
	s2, _ := st.Alloc(4, collect, false)
	if st.PosOf(heap.PtrWord(s2.ID, 0)) != 1 || len(s2.Mem) != 8 {
		t.Fatalf("bump after fill went to position %d, %v with %d words of memory",
			st.PosOf(heap.PtrWord(s2.ID, 0)), s2, len(s2.Mem))
	}
	if !st.Step(0).Reserved() {
		t.Errorf("%v, which the cursor has not reached, has memory", st.Step(0))
	}
	// Exhaust everything: Bump must fail, not panic, and only once the
	// cursor has passed every step.
	for st.AllocIdx() >= 0 {
		if _, _, ok := st.Bump(4); !ok && st.AllocIdx() >= 0 {
			st.Alloc(4, collect, false)
		}
	}
	if _, _, ok := st.Bump(4); ok {
		t.Error("Bump succeeded on a full step heap")
	}
	for i, s := range st.All() {
		if s.Reserved() || s.Used() != 8 {
			t.Errorf("step %d is %v after the heap filled", i+1, s)
		}
	}
}

// bump is Bump with the ladder's answer to a reservation the cursor
// reaches — its memory (Alloc) — and no collection: how the tests below
// fill steps.
func bump(st *Steps, total int) (*heap.Space, int, bool) {
	for {
		s, off, ok := st.Bump(total)
		if ok || st.AllocIdx() < 0 {
			return s, off, ok
		}
		st.Step(st.AllocIdx()).Back()
	}
}

func TestEmptyYoungest(t *testing.T) {
	h := heap.New()
	st := NewSteps(h, 4, 8)
	if got := st.EmptyYoungest(); got != 4 {
		t.Errorf("EmptyYoungest of fresh steps = %d, want 4", got)
	}
	bump(st, 4) // fills part of position 3
	if got := st.EmptyYoungest(); got != 3 {
		t.Errorf("EmptyYoungest = %d, want 3", got)
	}
}

func TestAddStepsPrepends(t *testing.T) {
	h := heap.New()
	st := NewSteps(h, 3, 64)
	s, _, _ := bump(st, 8) // lands at position 2
	st.AddSteps(2)
	if st.K() != 5 {
		t.Fatalf("K = %d after AddSteps(2)", st.K())
	}
	if got := st.PosOf(heap.PtrWord(s.ID, 0)); got != 4 {
		t.Errorf("old oldest step now at position %d, want 4", got)
	}
	if st.EmptyYoungest() < 2 {
		t.Error("new steps at the young end are not empty")
	}
}

func TestPosOfUnknownSpace(t *testing.T) {
	h := heap.New()
	st := NewSteps(h, 2, 64)
	other := h.NewSpace("other", 64)
	if st.PosOf(heap.PtrWord(other.ID, 0)) != -1 {
		t.Error("foreign space got a step position")
	}
	if st.PosOf(heap.PtrWord(heap.SpaceID(200), 0)) != -1 {
		t.Error("out-of-range space id got a step position")
	}
}

func TestCollectSpillGrowsStepCount(t *testing.T) {
	// Force survivors + an "extra from" region to overflow the primary
	// shadows so the spare-spill path runs: steps must grow and data
	// survive.
	h := heap.New()
	c := New(h, 3, 64, WithGrowth(), WithPolicy(FixedJ(2)))
	s := h.Scope()
	defer s.Close()

	// With j=2 only one step is collected at a time, but the survivors of
	// a fully-live heap cannot compact into one shadow when the extra
	// nursery-like region spills. Simulate by filling all steps with live
	// data, then collecting with an alsoFrom covering a side space.
	var keep []heap.Ref
	for i := 0; i < 50; i++ {
		keep = append(keep, h.Cons(h.Fix(int64(i)), h.Null()))
	}
	side := h.NewSpace("side", 256)
	// Build live objects in the side space by hand.
	var sideRefs []heap.Ref
	for i := 0; i < 30; i++ {
		off, _ := side.Bump(3)
		w := h.InitObject(side, off, heap.TPair, 2)
		h.Payload(w)[0] = heap.FixnumWord(int64(1000 + i))
		h.Payload(w)[1] = heap.NullWord
		sideRefs = append(sideRefs, h.GlobalWord(w))
	}

	kBefore := c.Steps().K()
	copied := c.Steps().Collect([]*heap.Space{side}, nil, nil, true)
	if copied == 0 {
		t.Fatal("nothing copied")
	}
	side.Reset() // the from-space owner discards it after evacuation
	if c.Steps().K() <= kBefore {
		t.Skip("survivors happened to fit; spill not exercised at this sizing")
	}
	for i, r := range keep {
		if got := h.FixVal(h.Car(r)); got != int64(i) {
			t.Errorf("step object %d corrupted: %d", i, got)
		}
	}
	for i, r := range sideRefs {
		if got := h.FixVal(h.Car(r)); got != int64(1000+i) {
			t.Errorf("side object %d corrupted: %d", i, got)
		}
		if heap.PtrSpace(h.Get(r)) == side.ID {
			t.Errorf("side object %d not evacuated", i)
		}
	}
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
}

// blockedSteps builds the step machine the way npms does: every step and
// shadow a blocked space whose table is one block spanning it.
func blockedSteps(h *heap.Heap, k, stepWords int) *Steps {
	return NewStepsOf(h, k, stepWords, "npms", func(name string, words int) *heap.Space {
		return h.ReserveBlockedSpaceSpan(name, words, words)
	})
}

// TestNewStepsOfOrderNamesAndForm: the constructor creates the k steps and
// then the k shadows, in that order (so SpaceIDs are what each collector's
// own loop used to hand out), names them after the prefix, and leaves every
// one as reserve made it — a reservation in bump form, step k, where the
// cursor starts, too. Backed, a step is the empty space of its capacity; a
// blocked one, formatted by FreeFrom(0), is the space NewBlockedSpaceSpan
// makes.
func TestNewStepsOfOrderNamesAndForm(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mk      func(h *heap.Heap) *Steps
		prefix  string
		blocked bool
	}{
		{"NewSteps", func(h *heap.Heap) *Steps { return NewSteps(h, 3, 64) }, "np", false},
		{"blocked spans", func(h *heap.Heap) *Steps { return blockedSteps(h, 3, 64) }, "npms", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := heap.New()
			h.NewSpace("earlier", 8) // a collector's own space created first keeps its ID
			st := tc.mk(h)
			want := []string{"earlier", "-step-0", "-step-1", "-step-2", "-shadow-0", "-shadow-1", "-shadow-2"}
			if len(h.Spaces) != len(want) {
				t.Fatalf("%d spaces, want %d", len(h.Spaces), len(want))
			}
			for i, s := range h.Spaces[1:] {
				if s.Name != tc.prefix+want[i+1] || int(s.ID) != i+1 {
					t.Errorf("space %d is %q (ID %d), want %q", i+1, s.Name, s.ID, tc.prefix+want[i+1])
				}
			}
			for i, s := range st.All() {
				if s != h.Spaces[1+i] || st.Step(i) != s || st.PosOf(heap.PtrWord(s.ID, 0)) != i {
					t.Errorf("step %d is %v at position %d", i+1, s, st.PosOf(heap.PtrWord(s.ID, 0)))
				}
				if !s.Reserved() || s.Top != 0 || s.Cap() != 64 {
					t.Errorf("step %d is %v with %d words of memory; reserved: %v", i+1, s, len(s.Mem), s.Reserved())
				}
				if tc.blocked && (s.Blocks.FreeHead[0] != heap.NoFreeBlock || s.Blocks.MaxRun[0] != 0) {
					t.Errorf("step %d is not in bump form: head %d, MaxRun %d", i+1, s.Blocks.FreeHead[0], s.Blocks.MaxRun[0])
				}
			}
			if err := heap.Check(h); err != nil {
				t.Error(err)
			}
			first := st.Step(0)
			first.Back()
			fresh := heap.New().NewSpace("fresh", 64)
			if tc.blocked {
				first.FreeFrom(0)
				fresh = heap.New().NewBlockedSpaceSpan("fresh", 64, 64)
			}
			if !slices.Equal(first.Mem, fresh.Mem) || first.Top != fresh.Top ||
				first.Blocks != nil && (first.Blocks.FreeHead[0] != fresh.Blocks.FreeHead[0] || first.Blocks.MaxRun[0] != fresh.Blocks.MaxRun[0]) {
				t.Errorf("step 1, backed, is %v; a space made with its memory is %v", first, fresh)
			}
			for i, s := range st.shadows {
				if s != h.Spaces[4+i] || s.Top != 0 || st.PosOf(heap.PtrWord(s.ID, 0)) != -1 {
					t.Errorf("shadow %d is %v, Top %d, position %d", i, s, s.Top, st.PosOf(heap.PtrWord(s.ID, 0)))
				}
				if tc.blocked && s.Blocks.FreeHead[0] != heap.NoFreeBlock {
					t.Errorf("shadow %d is not in bump form: free head %d", i, s.Blocks.FreeHead[0])
				}
			}
			if st.AllocIdx() != 2 || st.K() != 3 || st.StepWords != 64 {
				t.Errorf("cursor %d, k %d, step size %d", st.AllocIdx(), st.K(), st.StepWords)
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Error("NewStepsOf with k=1 did not panic")
		}
	}()
	blockedSteps(heap.New(), 1, 64)
}

// TestRenameOldBy: steps j+1..k move to the young end in ascending key
// order, equal keys keeping the order they had (sort.SliceStable's answer,
// which npms's renaming was written with), steps 1..j follow as the new
// oldest, and the position table is rebuilt to match. The steps are named by
// their position before the renaming.
func TestRenameOldBy(t *testing.T) {
	for _, tc := range []struct {
		name string
		j    int
		keys []int // by original position; positions below j are never asked
		want []int // original positions, in the new logical order
	}{
		{"already ascending", 1, []int{-1, 1, 2, 3, 4}, []int{1, 2, 3, 4, 0}},
		{"descending", 1, []int{-1, 9, 7, 5, 3}, []int{4, 3, 2, 1, 0}},
		{"ties keep their order", 2, []int{-1, -1, 5, 0, 5, 0, 5}, []int{3, 5, 2, 4, 6, 0, 1}},
		{"all equal is the plain rotation", 2, []int{-1, -1, 7, 7, 7}, []int{2, 3, 4, 0, 1}},
		{"tie with the smallest arriving last", 0, []int{4, 2, 4, 2, 1}, []int{4, 1, 3, 0, 2}},
		{"one collected step", 3, []int{-1, -1, -1, 8}, []int{3, 0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := heap.New()
			st := blockedSteps(h, len(tc.keys), 32)
			st.SetJ(tc.j)
			orig := append([]*heap.Space{}, st.All()...)
			keyOf, origPos := map[*heap.Space]int{}, map[*heap.Space]int{}
			for i, s := range orig {
				keyOf[s], origPos[s] = tc.keys[i], i
			}
			asked := 0
			key := func(s *heap.Space) int {
				asked++
				if keyOf[s] < 0 {
					t.Errorf("key asked of %v, which is not collected", s)
				}
				return keyOf[s]
			}
			// Twice over the same keys: the second pass runs in the buffers
			// the first one swapped out, and must undo nothing.
			for pass := 0; pass < 2; pass++ {
				if pass == 1 {
					st.SetJ(0)
					for _, s := range orig[:tc.j] {
						keyOf[s] = 1 << 30 // the old young steps stay oldest
					}
				}
				st.RenameOldBy(key)
				for p, s := range st.All() {
					if origPos[s] != tc.want[p] {
						t.Errorf("pass %d: position %d holds the step from %d, want %d", pass, p, origPos[s], tc.want[p])
					}
					if got := st.PosOf(heap.PtrWord(s.ID, 5)); got != p {
						t.Errorf("pass %d: PosOf says %d for the step at %d", pass, got, p)
					}
				}
			}
			if want := len(tc.keys) - tc.j + len(tc.keys); asked != want {
				t.Errorf("key called %d times, want once per collected step (%d)", asked, want)
			}
			for _, s := range st.shadows {
				if st.PosOf(heap.PtrWord(s.ID, 0)) != -1 {
					t.Errorf("shadow %v got a position", s)
				}
			}
			if st.K() != len(tc.keys) {
				t.Errorf("k = %d after renaming", st.K())
			}
		})
	}
}

// TestCollectIntoBlockedShadows is npms's compaction on the bare machine:
// pairs carved first-fit out of free-list steps, half of them rooted, are
// evacuated by Collect into the bump-form shadows — filled from the new step
// k-j downward — which FreeFrom then returns to free-list form; the
// collected steps come back as empty bump-form shadows.
func TestCollectIntoBlockedShadows(t *testing.T) {
	const k, j, stepWords, perStep = 4, 1, 30, 10
	h := heap.New()
	st := blockedSteps(h, k, stepWords)
	st.SetJ(j)
	collected := append([]*heap.Space{}, st.All()[j:]...)
	kept := st.Step(0)
	primary := append([]*heap.Space{}, st.shadows[:k-j]...)

	var roots []heap.Ref
	n := 0
	for p := k - 1; p >= 0; p-- { // allocation order: step k first
		st.Step(p).Back() // as npms's ladder backs a step its cursor reaches
		st.Step(p).FreeFrom(0)
		for i := 0; i < perStep; i++ {
			off, ok := st.Step(p).AllocFromBlock(0, 3)
			if !ok {
				t.Fatalf("step %d full after %d pairs", p+1, i)
			}
			w := h.InitObject(st.Step(p), off, heap.TPair, 2)
			h.Payload(w)[0], h.Payload(w)[1] = heap.FixnumWord(int64(n)), heap.NullWord
			if n%2 == 0 {
				roots = append(roots, h.GlobalWord(w))
			}
			n++
		}
	}

	copied := st.Collect(nil, nil, nil, false)
	if want := uint64((k - j) * perStep / 2 * 3); copied != want {
		t.Errorf("copied %d words, want %d", copied, want)
	}
	// 15 survivors of 3 words: ten fill the new step k-j, five the one below.
	for i, wantTop := range []int{0, 15, 30} {
		s := st.Step(i)
		if s != primary[i] || s.Top != wantTop {
			t.Errorf("new step %d is %v, want %q filled to %d", i+1, s, primary[i].Name, wantTop)
		}
		s.FreeFrom(s.Top)
		if s.Top != stepWords || heap.LiveWords(s) != wantTop {
			t.Errorf("new step %d after FreeFrom: Top %d, %d live words", i+1, s.Top, heap.LiveWords(s))
		}
		if head, wantHead := int(s.Blocks.FreeHead[0]), wantTop; wantTop < stepWords && head != wantHead {
			t.Errorf("new step %d: free list starts at %d, want %d", i+1, head, wantHead)
		}
	}
	if st.Step(k-1) != kept || heap.LiveWords(kept) != perStep*3 {
		t.Errorf("the uncollected step 1 is not the new step k, untouched")
	}
	for i, s := range st.shadows[:k-j] {
		if s != collected[i] || s.Top != 0 || s.Blocks.FreeHead[0] != heap.NoFreeBlock {
			t.Errorf("shadow %d is %v (free head %d), want the collected %q, emptied", i, s, s.Blocks.FreeHead[0], collected[i].Name)
		}
	}
	for i, r := range roots {
		if got := h.FixVal(h.Car(r)); got != int64(2*i) {
			t.Errorf("root %d reads %d", i, got)
		}
		if pos := st.PosOf(h.Get(r)); pos < 0 {
			t.Errorf("root %d points outside the steps", i)
		}
	}
	if len(h.Spaces) != 2*k {
		t.Errorf("%d spaces after a collection that fit, want %d", len(h.Spaces), 2*k)
	}
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
}

// TestAllocationCursor: the cursor a collector descends by hand reads and
// writes the position Bump descends, and AddSteps recomputes it over the
// grown list.
func TestAllocationCursor(t *testing.T) {
	h := heap.New()
	st := NewSteps(h, 3, 8)
	if st.AllocIdx() != 2 {
		t.Fatalf("fresh cursor at %d, want 2", st.AllocIdx())
	}
	bump(st, 8)
	bump(st, 8) // step 3 was full: the second bump moved down and filled step 2
	if st.AllocIdx() != 1 {
		t.Errorf("cursor at %d after filling steps 3 and 2, want 1", st.AllocIdx())
	}
	st.SetAllocIdx(0)
	if s, _, ok := bump(st, 4); !ok || s != st.Step(0) {
		t.Errorf("Bump ignored a cursor set to step 1")
	}
	st.SetAllocIdx(-1)
	if _, _, ok := bump(st, 4); ok {
		t.Error("Bump succeeded with the cursor past step 1")
	}
	st.AddSteps(2) // two empty young steps below the half-full old step 1, now at position 2
	if st.AllocIdx() != 2 {
		t.Errorf("cursor at %d after AddSteps, want 2 (the highest step with room)", st.AllocIdx())
	}
}

// TestFreeAndLiveStepWords: the two totals the collectors size their
// decisions by partition the k steps' capacity, before and after bumps that
// cross a step boundary.
func TestFreeAndLiveStepWords(t *testing.T) {
	h := heap.New()
	st := NewSteps(h, 3, 64)
	if st.FreeWords() != 3*64 || st.LiveStepWords() != 0 {
		t.Fatalf("fresh steps: free %d, live %d", st.FreeWords(), st.LiveStepWords())
	}
	for i := 0; i < 10; i++ { // 80 words: fills position 2, spills into 1
		if _, _, ok := bump(st, 8); !ok {
			t.Fatalf("bump %d failed", i)
		}
	}
	if st.LiveStepWords() != 80 {
		t.Errorf("LiveStepWords = %d, want 80", st.LiveStepWords())
	}
	if st.FreeWords() != 3*64-80 {
		t.Errorf("FreeWords = %d, want %d", st.FreeWords(), 3*64-80)
	}
}

// TestInOldInYoungSplitAtJ: positions below j are the uncollected young
// steps, positions from j up are the collected generation, and a pointer
// outside the steps is in neither.
func TestInOldInYoungSplitAtJ(t *testing.T) {
	h := heap.New()
	st := NewSteps(h, 4, 8)
	other := h.NewSpace("other", 8)
	for j := 0; j < st.K(); j++ {
		st.SetJ(j)
		for p := 0; p < st.K(); p++ {
			w := heap.PtrWord(st.Step(p).ID, 0)
			if got := st.InYoung(w); got != (p < j) {
				t.Errorf("j=%d: InYoung(position %d) = %v", j, p, got)
			}
			if got := st.InOld(w); got != (p >= j) {
				t.Errorf("j=%d: InOld(position %d) = %v", j, p, got)
			}
		}
		if w := heap.PtrWord(other.ID, 0); st.InYoung(w) || st.InOld(w) {
			t.Errorf("j=%d: a pointer outside the steps classified as a step pointer", j)
		}
	}
}

// TestScanYoungForOldPointers: the rebuild after a collection reports
// exactly the objects in steps 1..j holding a pointer into steps j+1..k, in
// address order, and skips young-to-young pointers, immediates and objects
// in the collected steps.
func TestScanYoungForOldPointers(t *testing.T) {
	h := heap.New()
	st := NewSteps(h, 4, 32)
	st.SetJ(2)
	pair := func(pos int, car, cdr heap.Word) heap.Word {
		s := st.Step(pos)
		s.Back() // placed by hand, past the cursor: back the step as the ladder would
		off, ok := s.Bump(3 + h.ExtraWords())
		if !ok {
			t.Fatalf("position %d full", pos)
		}
		w := h.InitObject(s, off, heap.TPair, 2)
		s.Mem[heap.PtrOff(w)+1+h.ExtraWords()] = car
		s.Mem[heap.PtrOff(w)+2+h.ExtraWords()] = cdr
		return w
	}
	old2 := pair(2, heap.FixnumWord(1), heap.NullWord)
	old3 := pair(3, heap.FixnumWord(2), heap.NullWord)
	young1 := pair(1, heap.FixnumWord(3), heap.NullWord)

	a := pair(0, heap.FixnumWord(4), old3)     // young -> old: remembered
	pair(0, young1, heap.NullWord)             // young -> young: not
	pair(0, heap.FixnumWord(5), heap.NullWord) // immediates only: not
	d := pair(1, old2, young1)                 // young -> old beside young -> young: remembered
	pair(3, old2, heap.NullWord)               // old -> old lies outside 1..j: not

	var got []heap.Word
	st.ScanYoungForOldPointers(func(obj heap.Word) { got = append(got, obj) })
	if len(got) != 2 || got[0] != a || got[1] != d {
		t.Errorf("remembered %#v, want [%#x %#x]", got, uint64(a), uint64(d))
	}

	st.SetJ(0)
	got = got[:0]
	st.ScanYoungForOldPointers(func(obj heap.Word) { got = append(got, obj) })
	if len(got) != 0 {
		t.Errorf("j=0 has no young steps, yet %d objects were remembered", len(got))
	}
}

// TestRecomputeAllocIdx: the cursor lands on the highest-numbered step with
// room, and on -1 when every step is full.
func TestRecomputeAllocIdx(t *testing.T) {
	h := heap.New()
	st := NewSteps(h, 3, 8)
	for {
		if _, _, ok := bump(st, 8); !ok {
			break
		}
	}
	st.RecomputeAllocIdx()
	if st.AllocIdx() != -1 {
		t.Fatalf("cursor at %d with every step full, want -1", st.AllocIdx())
	}
	st.Step(1).Reset()
	st.RecomputeAllocIdx()
	if st.AllocIdx() != 1 {
		t.Errorf("cursor at %d with only position 1 free, want 1", st.AllocIdx())
	}
	st.Step(2).Reset()
	st.RecomputeAllocIdx()
	if st.AllocIdx() != 2 {
		t.Errorf("cursor at %d with positions 1 and 2 free, want 2", st.AllocIdx())
	}
}
