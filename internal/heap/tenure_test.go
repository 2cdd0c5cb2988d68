package heap

import (
	"testing"
)

// TestHeaderAgeRoundTrip: the age occupies bits 9-15 and nothing else. For
// every type, a spread of sizes, the ages at both ends of the range and the
// mark bit set and clear, WithHeaderAge/HeaderAge round-trip and HeaderType,
// HeaderSize, ObjWords and Marked read what they read without an age.
func TestHeaderAgeRoundTrip(t *testing.T) {
	for typ := Type(0); typ < numTypes; typ++ {
		for _, size := range []int{0, 1, 2, 300, 1<<48 - 1} {
			for _, age := range []int{0, 1, 126, 127} {
				for _, marked := range []bool{false, true} {
					base := HeaderWord(typ, size)
					if marked {
						base = SetMark(base)
					}
					h := WithHeaderAge(base, age)
					if !IsHeader(h) {
						t.Fatalf("%v/%d/age %d: not a header: %#x", typ, size, age, uint64(h))
					}
					if got := HeaderAge(h); got != age {
						t.Errorf("%v/%d: HeaderAge = %d, want %d", typ, size, got, age)
					}
					if HeaderType(h) != typ || HeaderSize(h) != size || ObjWords(h) != 1+size || Marked(h) != marked {
						t.Errorf("%v/%d/age %d/marked %v reads back as %v/%d/%d words/marked %v",
							typ, size, age, marked, HeaderType(h), HeaderSize(h), ObjWords(h), Marked(h))
					}
					if WithHeaderAge(h, 0) != base {
						t.Errorf("%v/%d/age %d: clearing the age does not restore the header", typ, size, age)
					}
					if ClearMark(SetMark(h)) != ClearMark(h) || HeaderAge(SetMark(h)) != age {
						t.Errorf("%v/%d/age %d: the mark bit disturbs the age", typ, size, age)
					}
				}
			}
		}
	}
	if got := HeaderAge(HeaderWord(TPair, 2)); got != 0 {
		t.Errorf("a fresh header has age %d", got)
	}
	if got := HeaderAge(WithHeaderAge(HeaderWord(TPair, 2), MaxObjectAge+10)); got != MaxObjectAge {
		t.Errorf("age did not saturate: %d, want %d", got, MaxObjectAge)
	}
}

// tenureRig is a nursery + survivor shadow + old target with a bump
// allocator over the nursery, for driving the tenured evacuator directly.
type tenureRig struct {
	h       *Heap
	nursery *Space
	shadow  *Space
	old     *Space
	// evac is one persistent engine, as in the collectors, so consecutive
	// runs would expose state that bleeds from one mode into the next.
	evac *Evacuator
}

func newTenureRig(t *testing.T, nurseryWords, shadowWords, oldWords int) *tenureRig {
	t.Helper()
	h := New()
	r := &tenureRig{
		h:       h,
		nursery: h.NewSpace("nursery", nurseryWords),
		shadow:  h.NewSpace("shadow", shadowWords),
		old:     h.NewSpace("old", oldWords),
	}
	r.evac = NewEvacuator(h, nil)
	h.SetAllocator(r)
	return r
}

// ageOf reads the header age of the object w points to.
func (r *tenureRig) ageOf(w Word) int { return HeaderAge(r.h.Header(w)) }

func (r *tenureRig) AllocRaw(t Type, payload int) Word {
	total := 1 + payload + r.h.ExtraWords()
	off, ok := r.nursery.Bump(total)
	if !ok {
		panic("tenureRig: nursery full")
	}
	return r.h.InitObject(r.nursery, off, t, payload)
}

// collect runs one tenured collection of r.nursery into the shadow/old
// pair and returns the evacuator for counter inspection. extra slots are
// visited through Slot(), the way collectors feed remembered-set roots.
func (r *tenureRig) collect(threshold int, extra ...*Word) *Evacuator {
	e := r.evac
	e.SetFrom(r.nursery)
	e.BeginTenured(threshold, []*Space{r.shadow}, r.old)
	e.EvacuateRoots()
	for _, slot := range extra {
		e.Slot()(slot)
	}
	e.Drain()
	r.nursery.Reset()
	r.nursery, r.shadow = r.shadow, r.nursery
	return e
}

func TestTenuredEvacuatorRetainsUnderThreshold(t *testing.T) {
	r := newTenureRig(t, 256, 256, 1024)
	h := r.h
	sc := h.Scope()
	defer sc.Close()

	live := h.Cons(h.Fix(1), h.Cons(h.Fix(2), h.Null()))
	inner := h.Scope()
	h.Cons(h.Fix(99), h.Null()) // garbage once the inner scope closes
	side := h.Get(h.Cons(h.Fix(3), h.Null()))
	inner.Close()

	// side is reachable only from a slot visited through Slot(): it must be
	// age-routed exactly like a heap root.
	e := r.collect(2, &side)
	if PtrSpace(side) != r.nursery.ID || r.ageOf(side) != 1 {
		t.Fatalf("Slot() root landed in space %d at age %d, want the flipped nursery at age 1",
			PtrSpace(side), r.ageOf(side))
	}
	if e.WordsPromoted != 0 {
		t.Fatalf("first collection promoted %d words, want 0", e.WordsPromoted)
	}
	if e.WordsRetained != 9 { // three pairs, 3 words each
		t.Fatalf("retained %d words, want 9", e.WordsRetained)
	}
	if e.WordsCopied != e.WordsRetained {
		t.Fatalf("copied %d != retained %d", e.WordsCopied, e.WordsRetained)
	}
	if r.old.Used() != 0 {
		t.Fatalf("old area got %d words on the first collection", r.old.Used())
	}
	w := h.Get(live)
	if PtrSpace(w) != r.nursery.ID {
		t.Fatal("survivor did not land in the (flipped) nursery")
	}
	if got := r.ageOf(w); got != 1 {
		t.Fatalf("survivor age = %d, want 1", got)
	}
	if got := h.FixVal(h.Car(live)); got != 1 {
		t.Fatalf("survivor corrupted: car = %d", got)
	}
	surv, retained := e.SurvivorsByAge()
	if surv[0] != 9 || retained[1] != 9 {
		t.Fatalf("SurvivorsByAge: surv=%v retained=%v, want 9 in class 0 / class 1",
			surv[0], retained[1])
	}

	// Second collection: ages hit the threshold, everything still rooted
	// promotes (side's slot is not visited again, so it is garbage now).
	e = r.collect(2)
	if e.WordsRetained != 0 || e.WordsPromoted != 6 {
		t.Fatalf("second collection: retained %d promoted %d, want 0/6",
			e.WordsRetained, e.WordsPromoted)
	}
	w = h.Get(live)
	if PtrSpace(w) != r.old.ID {
		t.Fatal("aged survivor was not promoted to the old space")
	}
	// Promotion clears the age: the copy in the old space reads 0, and so
	// does the rest of the promoted list.
	if a, b := r.ageOf(w), r.ageOf(h.Get(h.Cdr(live))); a != 0 || b != 0 {
		t.Fatalf("promoted copies carry ages %d and %d, want 0", a, b)
	}
	surv, _ = e.SurvivorsByAge()
	if surv[1] != 6 {
		t.Fatalf("second collection surv[1] = %d, want 6", surv[1])
	}
	if got := h.FixVal(h.Car(h.Cdr(live))); got != 2 {
		t.Fatalf("promoted list corrupted: cadr = %d", got)
	}
}

func TestTenuredEvacuatorThresholdOnePromotesAll(t *testing.T) {
	r := newTenureRig(t, 256, 256, 1024)
	h := r.h
	sc := h.Scope()
	defer sc.Close()
	live := h.Cons(h.Fix(5), h.Null())

	e := r.collect(1)
	if e.WordsRetained != 0 || e.WordsPromoted != 3 {
		t.Fatalf("threshold 1: retained %d promoted %d, want 0/3",
			e.WordsRetained, e.WordsPromoted)
	}
	if PtrSpace(h.Get(live)) != r.old.ID {
		t.Fatal("threshold 1 did not promote to the old space")
	}
}

func TestTenuredEvacuatorNeverPromotes(t *testing.T) {
	r := newTenureRig(t, 256, 256, 1024)
	h := r.h
	sc := h.Scope()
	defer sc.Close()
	live := h.Cons(h.Fix(5), h.Null())

	for i := 0; i < 5; i++ {
		e := r.collect(TenureNever)
		if e.WordsPromoted != 0 {
			t.Fatalf("round %d promoted %d words under TenureNever", i, e.WordsPromoted)
		}
	}
	w := h.Get(live)
	if PtrSpace(w) != r.nursery.ID {
		t.Fatal("TenureNever survivor left the young region")
	}
	if got := r.ageOf(w); got != 5 {
		t.Fatalf("age after 5 rounds = %d, want 5", got)
	}

	// A plain Begin on the same engine is a wholesale run: the survivor is
	// promoted whatever its age, and neither the stale survivor targets nor
	// the age tallies of the tenured run before it are touched.
	e := r.evac
	surv, retained := e.SurvivorsByAge()
	wantSurv, wantRetained := *surv, *retained
	e.SetFrom(r.nursery)
	e.Begin(r.old)
	e.Run()
	if PtrSpace(h.Get(live)) != r.old.ID {
		t.Fatal("wholesale run after a tenured one did not promote the survivor")
	}
	if e.WordsCopied != 3 || e.WordsRetained != 0 || e.WordsPromoted != 0 || r.shadow.Top != 0 {
		t.Fatalf("wholesale run after a tenured one: copied %d retained %d promoted %d shadow top %d, want 3/0/0/0",
			e.WordsCopied, e.WordsRetained, e.WordsPromoted, r.shadow.Top)
	}
	if *surv != wantSurv || *retained != wantRetained {
		t.Fatal("wholesale run after a tenured one moved the age tallies")
	}
}

func TestTenuredEvacuatorShadowOverflowPromotes(t *testing.T) {
	// Shadow too small for both survivors: one is retained, the overflow
	// is promoted early (the overflow-tenuring safety valve).
	r := newTenureRig(t, 256, 3, 1024)
	h := r.h
	sc := h.Scope()
	defer sc.Close()
	a := h.Cons(h.Fix(1), h.Null())
	b := h.Cons(h.Fix(2), h.Null())

	e := r.evac
	e.SetFrom(r.nursery)
	e.BeginTenured(4, []*Space{r.shadow}, r.old)
	e.Run()
	if e.WordsRetained != 3 || e.WordsPromoted != 3 {
		t.Fatalf("retained %d promoted %d, want 3/3", e.WordsRetained, e.WordsPromoted)
	}
	spaces := map[SpaceID]bool{
		PtrSpace(h.Get(a)): true,
		PtrSpace(h.Get(b)): true,
	}
	if !spaces[r.shadow.ID] || !spaces[r.old.ID] {
		t.Fatalf("survivors in %v, want one in shadow and one in old", spaces)
	}
	for _, w := range []Word{h.Get(a), h.Get(b)} {
		if want := map[SpaceID]int{r.shadow.ID: 1, r.old.ID: 0}[PtrSpace(w)]; r.ageOf(w) != want {
			t.Errorf("survivor in space %d has age %d, want %d", PtrSpace(w), r.ageOf(w), want)
		}
	}
}

func TestTenuredEvacuatorAgeSaturates(t *testing.T) {
	r := newTenureRig(t, 64, 64, 256)
	h := r.h
	sc := h.Scope()
	defer sc.Close()
	live := h.Cons(h.Fix(9), h.Null())

	for i := 0; i < MaxObjectAge+10; i++ {
		r.collect(TenureNever)
	}
	w := h.Get(live)
	if got := r.ageOf(w); got != MaxObjectAge {
		t.Fatalf("age = %d, want saturation at %d", got, MaxObjectAge)
	}
}
