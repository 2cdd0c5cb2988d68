package heap

import (
	"fmt"
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

// TestMarkerSteadyStateZeroAllocs guards the mark hot path: once the mark
// stack has grown to the workload's depth, re-arming with Begin and marking
// the same live graph must not allocate.
func TestMarkerSteadyStateZeroAllocs(t *testing.T) {
	h := New(WithConfig(Config{})) // the sequential engine, whatever the environment pins
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
	h := New(WithConfig(Config{})) // the sequential engine, whatever the environment pins
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

// TestMarkerBoundedRegionZeroAllocs guards the bounded mark hot path: a
// persistent marker re-armed with SetRegion each cycle (the marksweep and
// npms pattern, since their space lists grow) must not allocate in steady
// state.
func TestMarkerBoundedRegionZeroAllocs(t *testing.T) {
	h := New(WithConfig(Config{})) // the sequential engine, whatever the environment pins
	s := h.NewSpace("mark-arena", 4096)
	other := h.NewSpace("outside", 16)
	h.GlobalWord(buildChain(t, h, s, 500))
	h.GlobalWord(buildChain(t, h, other, 2))

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
	if m.ObjectsMarked != 500 {
		t.Fatalf("marked %d objects, want 500 (the bound must exclude the outside space)", m.ObjectsMarked)
	}
}

// BenchmarkMarkerSteadyState reports the per-collection cost (and allocs)
// of marking a live chain with a reused Marker.
func BenchmarkMarkerSteadyState(b *testing.B) {
	h := New(WithConfig(Config{})) // the sequential engine, whatever the environment pins
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
	h := New(WithConfig(Config{})) // the sequential engine, whatever the environment pins
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
	h := New(WithConfig(Config{})) // the sequential engine, whatever the environment pins
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
