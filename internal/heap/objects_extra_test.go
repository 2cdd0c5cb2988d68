package heap

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBox(t *testing.T) {
	h, _ := newBumpHeap(t, 1024)
	s := h.Scope()
	defer s.Close()
	b := h.Box(h.Fix(5))
	if got := h.FixVal(h.Unbox(b)); got != 5 {
		t.Errorf("Unbox = %d", got)
	}
	h.SetBox(b, h.Fix(9))
	if got := h.FixVal(h.Unbox(b)); got != 9 {
		t.Errorf("after SetBox, Unbox = %d", got)
	}
}

func TestBytevector(t *testing.T) {
	h, _ := newBumpHeap(t, 1024)
	s := h.Scope()
	defer s.Close()
	for _, n := range []int{0, 1, 7, 8, 9, 64} {
		b := h.Bytevector(n)
		w := h.Get(b)
		if HeaderType(h.Header(w)) != TBytevec {
			t.Fatalf("Bytevector(%d) wrong type", n)
		}
		want := (n + 7) / 8
		if want == 0 {
			want = 1
		}
		if got := len(h.Payload(w)); got != want {
			t.Errorf("Bytevector(%d): %d payload words, want %d", n, got, want)
		}
	}
}

func TestRefOfAndDup(t *testing.T) {
	h, _ := newBumpHeap(t, 1024)
	s := h.Scope()
	defer s.Close()
	p := h.Cons(h.Fix(3), h.Null())
	w := h.Get(p)
	r := h.RefOf(w)
	if !h.Eq(p, r) {
		t.Error("RefOf not Eq to source")
	}
	d := h.Dup(p)
	h.Set(d, NullWord)
	if h.IsNull(p) {
		t.Error("mutating a Dup changed the original handle")
	}
}

func TestGCStatsHelpers(t *testing.T) {
	var g GCStats
	var s Stats
	if g.MarkCons(&s) != 0 {
		t.Error("MarkCons with zero allocation should be 0")
	}
	s.WordsAllocated = 100
	g.WordsCopied = 30
	g.WordsMarked = 20
	if got := g.MarkCons(&s); got != 0.5 {
		t.Errorf("MarkCons = %v, want 0.5", got)
	}
}

// TestEndCollection pins the one epilogue every collection ends with: the
// counts, the pause (histogram and log), the live and remembered-set peaks
// as running maxima, and the after-collection hook last, seeing all of it.
func TestEndCollection(t *testing.T) {
	h := New()
	var logged []uint64
	h.SetPauseLog(func(words uint64) { logged = append(logged, words) })
	var g GCStats
	var seen []GCStats
	h.SetAfterGC(func() { seen = append(seen, g) })

	h.EndCollection(&g, false, 10, 500, 7)
	h.EndCollection(&g, true, 30, 200, 3)
	h.EndCollection(&g, false, 20, 600, 9)

	if g.Collections != 3 || g.MajorCollections != 1 {
		t.Errorf("collections %d, major %d; want 3, 1", g.Collections, g.MajorCollections)
	}
	if g.Pauses.Count != 3 || g.Pauses.TotalWords != 60 || g.Pauses.MaxWords != 30 {
		t.Errorf("pauses: count %d total %d max %d; want 3, 60, 30",
			g.Pauses.Count, g.Pauses.TotalWords, g.Pauses.MaxWords)
	}
	if len(logged) != 3 || logged[0] != 10 || logged[1] != 30 || logged[2] != 20 {
		t.Errorf("pause log saw %v, want [10 30 20]", logged)
	}
	if g.PeakLive != 600 || g.RemsetPeak != 9 {
		t.Errorf("PeakLive %d, RemsetPeak %d; want 600, 9", g.PeakLive, g.RemsetPeak)
	}
	if len(seen) != 3 || seen[1].Collections != 2 || seen[1].Pauses.Count != 2 ||
		seen[1].PeakLive != 500 || seen[1].RemsetPeak != 7 {
		t.Errorf("the hook did not fire last, after the second collection's bookkeeping: %+v", seen)
	}
}

func TestEvacuatorOverflowCallback(t *testing.T) {
	h := New()
	from := h.NewSpace("from", 1024)
	small := h.NewSpace("small", 8)
	h.SetAllocator(&bumpAlloc{h: h, s: from})

	s := h.Scope()
	defer s.Close()
	var keep []Ref
	for i := 0; i < 20; i++ {
		keep = append(keep, h.Cons(h.Fix(int64(i)), h.Null()))
	}

	overflowed := 0
	e := NewEvacuator(h, nil, small)
	e.SetFrom(from)
	e.Overflow = func(need int) *Space {
		overflowed++
		return h.NewSpace("spill", 256)
	}
	e.Run()
	if overflowed == 0 {
		t.Fatal("overflow callback never fired")
	}
	for i, r := range keep {
		if got := h.FixVal(h.Car(r)); got != int64(i) {
			t.Errorf("object %d corrupted after overflow evacuation: %d", i, got)
		}
		if PtrSpace(h.Get(r)) == from.ID {
			t.Errorf("object %d not evacuated", i)
		}
	}
}

func TestEvacuatorOverflowPanicsWithoutCallback(t *testing.T) {
	h := New()
	from := h.NewSpace("from", 1024)
	small := h.NewSpace("small", 4)
	h.SetAllocator(&bumpAlloc{h: h, s: from})
	s := h.Scope()
	defer s.Close()
	for i := 0; i < 10; i++ {
		h.Cons(h.Fix(int64(i)), h.Null())
	}
	defer func() {
		if recover() == nil {
			t.Error("overflow without callback did not panic")
		}
	}()
	e := NewEvacuator(h, nil, small)
	e.SetFrom(from)
	e.Run()
}

// TestEngineConstructorsRejectPredicates pins what is left of the removed
// predicate bounds: the constructors keep the parameter, and a non-nil
// argument panics with the name of the setter that replaced it.
func TestEngineConstructorsRejectPredicates(t *testing.T) {
	h := New()
	pred := func(Word) bool { return true }
	for _, tc := range []struct {
		setter string
		build  func()
	}{
		{"SetRegion", func() { NewMarker(h, pred) }},
		{"SetFrom", func() { NewEvacuator(h, pred) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.setter) {
					t.Errorf("non-nil predicate: recovered %q, want a panic naming %s", msg, tc.setter)
				}
			}()
			tc.build()
		}()
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	h, a := newBumpHeap(t, 1024)
	s := h.Scope()
	defer s.Close()
	h.Cons(h.Fix(1), h.Null())
	if err := Check(h); err != nil {
		t.Fatalf("clean heap failed Check: %v", err)
	}
	// Smash the header.
	a.s.Mem[0] = FixnumWord(42)
	if err := Check(h); err == nil {
		t.Error("Check missed a corrupted header")
	}
}

func TestCheckDetectsStaleMark(t *testing.T) {
	h, a := newBumpHeap(t, 1024)
	s := h.Scope()
	defer s.Close()
	h.Cons(h.Fix(1), h.Null())
	a.s.Mem[0] = SetMark(a.s.Mem[0])
	if err := Check(h); err == nil {
		t.Error("Check missed a stale mark bit")
	}
}

func TestAllocHookFires(t *testing.T) {
	h, _ := newBumpHeap(t, 4096)
	s := h.Scope()
	defer s.Close()
	fired := 0
	h.SetAllocHook(10, func() {
		fired++
		h.SetAllocHook(h.Now()+10, h.hook)
	})
	for i := 0; i < 30; i++ {
		h.Cons(h.Fix(int64(i)), h.Null()) // 3 words each
	}
	if fired < 5 {
		t.Errorf("hook fired %d times over 90 words, want >= 5", fired)
	}
}

func TestFixnumNegative(t *testing.T) {
	f := func(n int32) bool {
		return FixnumVal(FixnumWord(int64(n))) == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
