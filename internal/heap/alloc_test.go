package heap

import (
	"fmt"
	"slices"
	"testing"
)

// buildChain hand-allocates a chain of n pairs in s (car = fixnum,
// cdr = previous pair) and returns the head pointer word. It bypasses the
// collector interface so these tests exercise the engines in isolation.
func buildChain(t testing.TB, h *Heap, s *Space, n int) Word {
	prev := NullWord
	for i := 0; i < n; i++ {
		off, ok := s.Bump(3)
		if !ok {
			t.Fatalf("space %q too small for %d pairs", s.Name, n)
		}
		w := h.InitObject(s, off, TPair, 2)
		s.Mem[off+1] = FixnumWord(int64(i))
		s.Mem[off+2] = prev
		prev = w
	}
	return prev
}

// chainCars walks a pair chain from head and returns the fixnum car of
// every pair, failing on any malformed link.
func chainCars(t *testing.T, h *Heap, head Word) []int64 {
	t.Helper()
	var cars []int64
	for w := head; w != NullWord; {
		if !IsPtr(w) {
			t.Fatalf("chain link is not a pointer: %#x", w)
		}
		s := h.Spaces[PtrSpace(w)]
		off := PtrOff(w)
		hdr := s.Mem[off]
		if HeaderType(hdr) != TPair {
			t.Fatalf("chain link is not a pair: header %#x", hdr)
		}
		cars = append(cars, FixnumVal(s.Mem[off+1]))
		w = s.Mem[off+2]
	}
	return cars
}

// TestMarkerSteadyStateZeroAllocs guards the mark hot path: once the mark
// stack has grown to the workload's depth, re-arming with Begin and marking
// the same live graph must not allocate.
func TestMarkerSteadyStateZeroAllocs(t *testing.T) {
	h := New()
	s := h.NewSpace("mark-arena", 4096)
	h.GlobalWord(buildChain(t, h, s, 500))

	m := NewMarker(h, nil)
	m.Run() // warmup: the mark stack grows once
	ClearMarks(s)

	allocs := testing.AllocsPerRun(20, func() {
		m.Begin()
		m.Run()
		ClearMarks(s)
	})
	if allocs != 0 {
		t.Errorf("steady-state mark cycle allocates %.0f objects/run, want 0", allocs)
	}
	if m.ObjectsMarked != 500 {
		t.Fatalf("marked %d objects, want 500 (the guard must measure real work)", m.ObjectsMarked)
	}
}

// TestEvacuatorSteadyStateZeroAllocs guards the Cheney hot path: a
// persistent evacuator flipping a live chain between two semispaces must
// not allocate once its scan state has been sized — including the bitset
// re-arm (SetFrom clears and refills the from-set every cycle) and the
// fused drain's cached space table.
func TestEvacuatorSteadyStateZeroAllocs(t *testing.T) {
	h := New()
	from := h.NewSpace("flip-A", 4096)
	to := h.NewSpace("flip-B", 4096)
	h.GlobalWord(buildChain(t, h, from, 500))

	e := NewEvacuator(h, nil)
	flip := func() {
		e.SetFrom(from)
		e.Begin(to)
		e.Run()
		from.Reset()
		from, to = to, from
	}
	flip() // warmup: the from-set bitset and scan state grow once

	allocs := testing.AllocsPerRun(20, flip)
	if allocs != 0 {
		t.Errorf("steady-state evacuation allocates %.0f objects/run, want 0", allocs)
	}
	if e.ObjectsCopied != 500 {
		t.Fatalf("copied %d objects, want 500 (the guard must measure real work)", e.ObjectsCopied)
	}
}

// TestEvacuatorOverflowOrderSequential pins the copy engine's Overflow
// behaviour: the failing target is kept, the fresh space is appended to
// Targets after validation, copies continue into it in Cheney order, and
// its gray region is drained.
func TestEvacuatorOverflowOrderSequential(t *testing.T) {
	const pairs = 40
	h := New()
	from := h.NewSpace("seq-from", 1<<12)
	h.GlobalWord(buildChain(t, h, from, pairs))

	t0 := h.NewSpace("seq-t0", 30) // room for exactly 10 pairs
	var requests []int
	e := NewEvacuator(h, nil)
	e.Overflow = func(need int) *Space {
		requests = append(requests, need)
		return h.NewSpace("seq-spill", 3*pairs)
	}
	e.SetFrom(from)
	e.Begin(t0)
	e.Run()

	if len(requests) != 1 {
		t.Fatalf("Overflow fired %d times, want exactly once (one spill fits the rest)", len(requests))
	}
	if requests[0] != 3 {
		t.Fatalf("Overflow request was %d words, want 3 (one pair)", requests[0])
	}
	if len(e.Targets) != 2 || e.Targets[0] != t0 {
		t.Fatalf("Targets after overflow: got %d entries with first %q, want [seq-t0 seq-spill]",
			len(e.Targets), e.Targets[0].Name)
	}
	if t0.Top != 30 {
		t.Fatalf("first target filled to %d words, want 30 (first-fit packs it full)", t0.Top)
	}
	if e.Targets[1].Top != 3*(pairs-10) {
		t.Fatalf("spill holds %d words, want %d", e.Targets[1].Top, 3*(pairs-10))
	}
	// Cheney order: the spill continues the breadth-first copy, so cars
	// descend contiguously across the target boundary.
	seq := append(censusOrder(t0), censusOrder(e.Targets[1])...)
	for i, v := range seq {
		if v != int64(pairs-1-i) {
			t.Fatalf("copy order diverges at object %d: car %d, want %d", i, v, pairs-1-i)
		}
	}
}

// censusOrder returns pair cars in address order (no sort) — the copy order.
func censusOrder(s *Space) []int64 {
	var cars []int64
	for off := 0; off < s.Top; {
		hdr := s.Mem[off]
		if HeaderType(hdr) == TPair {
			cars = append(cars, FixnumVal(s.Mem[off+1]))
		}
		off += ObjWords(hdr)
	}
	return cars
}

// TestMarkerBoundedRegionZeroAllocs guards the bounded mark hot path: a
// persistent marker re-armed with SetRegion each cycle (the marksweep and
// npms pattern, since their space lists grow) must not allocate in steady
// state. The region's root pair also points into a space outside it, so
// the drain's per-field bound, not only the root scan's, must stop there.
func TestMarkerBoundedRegionZeroAllocs(t *testing.T) {
	h := New()
	s := h.NewSpace("mark-arena", 4096)
	other := h.NewSpace("outside", 16)
	inHead := buildChain(t, h, s, 500)
	outHead := buildChain(t, h, other, 2)
	off, _ := s.Bump(3)
	h.GlobalWord(h.InitObject(s, off, TPair, 2))
	s.Mem[off+1] = inHead
	s.Mem[off+2] = outHead
	otherImage := slices.Clone(other.Mem)

	m := NewMarker(h, nil)
	cycle := func() {
		m.SetRegion(s)
		m.Begin()
		m.Run()
		ClearMarks(s)
	}
	cycle() // warmup: the region bitset and mark stack grow once

	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Errorf("steady-state bounded mark cycle allocates %.0f objects/run, want 0", allocs)
	}
	if m.ObjectsMarked != 501 || m.WordsMarked != 501*3 {
		t.Fatalf("marked %d objects / %d words, want 501 / %d (the bound must exclude the outside space)",
			m.ObjectsMarked, m.WordsMarked, 501*3)
	}
	if !other.MarksClear() {
		t.Error("a bounded mark set mark bits outside its region")
	}
	if !slices.Equal(other.Mem, otherImage) {
		t.Error("a bounded mark changed the words of a space outside its region")
	}
}

// BenchmarkMarkerSteadyState reports the per-collection cost (and allocs)
// of marking a live chain with a reused Marker.
func BenchmarkMarkerSteadyState(b *testing.B) {
	h := New()
	s := h.NewSpace("mark-arena", 1<<16)
	h.GlobalWord(buildChain(b, h, s, 8000))
	m := NewMarker(h, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Begin()
		m.Run()
		ClearMarks(s)
	}
}

// BenchmarkEvacuatorSteadyState reports the per-collection cost (and
// allocs) of a semispace flip with a reused Evacuator.
func BenchmarkEvacuatorSteadyState(b *testing.B) {
	h := New()
	from := h.NewSpace("flip-A", 1<<16)
	to := h.NewSpace("flip-B", 1<<16)
	h.GlobalWord(buildChain(b, h, from, 8000))
	e := NewEvacuator(h, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SetFrom(from)
		e.Begin(to)
		e.Run()
		from.Reset()
		from, to = to, from
	}
}

// BenchmarkEvacuatorMultiTarget reports the per-word cost of a collection
// whose survivors fill a dozen targets in turn, as a non-predictive
// collection fills its shadow steps: a chain of 12000 pairs and vectors of
// four and eight payload words, each holding the next, flipped between two
// sets of 16 spaces of a twelfth of the chain each.
func BenchmarkEvacuatorMultiTarget(b *testing.B) {
	const objects, steps = 12000, 16
	h := New()
	seed := h.NewSpace("seed", 1<<16)
	prev := NullWord
	for i := 0; i < objects; i++ {
		typ, payload := TPair, 2
		if i%4 == 3 {
			typ, payload = TVector, 1+i%8
		}
		off, ok := seed.Bump(1 + payload)
		if !ok {
			b.Fatal("seed space too small")
		}
		w := h.InitObject(seed, off, typ, payload)
		seed.Mem[off+1] = prev
		prev = w
	}
	h.GlobalWord(prev)
	set := func(name string) []*Space {
		var out []*Space
		for i := 0; i < steps; i++ {
			out = append(out, h.NewSpace(fmt.Sprintf("%s-%d", name, i), seed.Top/12+1))
		}
		return out
	}
	from, to := set("A"), set("B")
	e := NewEvacuator(h, nil)
	e.SetFrom(seed)
	e.Begin(from...)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SetFrom(from...)
		e.Begin(to...)
		e.Run()
		for _, s := range from {
			s.Reset()
		}
		from, to = to, from
	}
	if e.ObjectsCopied != objects {
		b.Fatalf("the last collection copied %d objects of %d", e.ObjectsCopied, objects)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(e.WordsCopied)), "ns/word")
}
