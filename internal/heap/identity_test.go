package heap

import (
	"fmt"
	"testing"
)

// checkIdentity holds the identity table to what it promises whatever the
// heap is doing: every entry of every space resolves to an ordinal whose
// address is that entry's (so no address, live or dead, names an object
// that lives elsewhere), and every object in live — the spaces whose every
// block below Top is a live object or filler — has an ID that resolves back
// to it.
func checkIdentity(t *testing.T, h *Heap, live ...*Space) {
	t.Helper()
	for _, s := range h.Spaces {
		for off := range s.ids {
			w := PtrWord(s.ID, off)
			if id, ok := h.IDOf(w); ok {
				if at, _ := h.AddrOf(id); at != w {
					t.Fatalf("%q+%d resolves to #%d, which lives at %#x", s.Name, off, id, uint64(at))
				}
			}
		}
	}
	for _, s := range live {
		WalkSpace(s, func(off int, hdr Word) bool {
			if HeaderType(hdr) == TFree {
				return true
			}
			w := PtrWord(s.ID, off)
			id, ok := h.IDOf(w)
			if at, _ := h.AddrOf(id); !ok || at != w {
				t.Fatalf("live object at %q+%d: IDOf = #%d, %v; AddrOf(#%d) = %#x", s.Name, off, id, ok, id, uint64(at))
			}
			return true
		})
	}
}

// TestIdentityBasics pins the table's contract one clause at a time: off
// until TrackIdentity; IDs are
// allocation ordinals; an address no object was allocated at is unknown,
// not ID 0; a move forgets the old address; Reset forgets the dead; a
// reused address takes the new ID; spaces added or Resized later are
// covered.
func TestIdentityBasics(t *testing.T) {
	h := New(WithConfig(Config{}))
	a := &movingAlloc{h: h, from: h.NewSpace("A", 4096), to: h.NewSpace("B", 4096)}
	h.SetAllocator(a)
	at := func(s *Space, off int) Word { return PtrWord(s.ID, off) }

	if _, ok := h.IDOf(at(a.from, 0)); ok {
		t.Fatal("IDOf resolves with identity off")
	}
	if _, ok := h.AddrOf(0); ok {
		t.Fatal("AddrOf resolves with identity off")
	}
	h.TrackIdentity()
	h.TrackIdentity() // a second call does nothing
	if _, ok := h.IDOf(at(a.from, 0)); ok {
		t.Fatal("an empty table resolved an address")
	}
	if _, ok := h.AddrOf(0); ok {
		t.Fatal("an empty table resolved an ordinal")
	}

	s := h.Scope()
	defer s.Close()
	p := h.Cons(h.Fix(1), h.Null())
	inner := h.Scope()
	dead := h.Get(h.Cons(h.Fix(9), h.Null()))
	inner.Close()
	q := h.Cons(h.Fix(2), p)
	for i, r := range []Ref{p, InvalidRef, q} {
		w := dead
		if r != InvalidRef {
			w = h.Get(r)
		}
		if id, ok := h.IDOf(w); !ok || id != uint64(i) {
			t.Fatalf("object %d: IDOf = %d, %v", i, id, ok)
		}
		if got, ok := h.AddrOf(uint64(i)); !ok || got != w {
			t.Fatalf("AddrOf(%d) = %#x, %v, want %#x", i, uint64(got), ok, uint64(w))
		}
	}
	if _, ok := h.IDOf(at(a.from, 1)); ok {
		t.Fatal("an address inside an object resolved")
	}
	if _, ok := h.AddrOf(3); ok {
		t.Fatal("an ordinal not yet allocated resolved")
	}
	if _, ok := h.IDOf(PtrWord(99, 0)); ok {
		t.Fatal("an address in a space the heap does not have resolved")
	}

	// A move: p and q are carried, the garbage pair is left behind, and the
	// Reset that ends the flip forgets it.
	before := []Word{h.Get(p), h.Get(q)}
	a.flip()
	for i, r := range []Ref{p, q} {
		if h.Get(r) == before[i] {
			t.Fatal("the flip did not move the object")
		}
		if id, ok := h.IDOf(h.Get(r)); !ok || id != uint64(2*i) {
			t.Errorf("after the move object #%d resolves to #%d, %v", 2*i, id, ok)
		}
		if got, _ := h.AddrOf(uint64(2 * i)); got != h.Get(r) {
			t.Errorf("AddrOf(#%d) = %#x, the Ref sees %#x", 2*i, uint64(got), uint64(h.Get(r)))
		}
		if _, ok := h.IDOf(before[i]); ok {
			t.Errorf("the address #%d moved away from still resolves", 2*i)
		}
	}
	if _, ok := h.IDOf(dead); ok {
		t.Error("a dead object's address survived the Reset of its space")
	}
	if got, _ := h.AddrOf(1); got != dead {
		t.Errorf("a dead object's ordinal resolves to %#x, want its last address %#x", uint64(got), uint64(dead))
	}
	checkIdentity(t, h, a.from)

	// Address reuse: the next allocation after two flips lands where an
	// older object once was, and wins.
	a.flip()
	r := h.Cons(h.Fix(3), h.Null())
	if id, _ := h.IDOf(h.Get(r)); id != 3 {
		t.Fatalf("a reused address resolves to #%d, want #3", id)
	}
	checkIdentity(t, h, a.from)

	// A space added later is covered from the start; a Resize sizes the
	// entries to the new capacity and keeps none of the old.
	c := h.NewSpace("C", 32)
	if len(c.ids) != 32 {
		t.Fatalf("a space added under identity has %d entries, want 32", len(c.ids))
	}
	c.ids[5] = 1
	c.Resize(128)
	if len(c.ids) != 128 || c.ids[5] != 0 {
		t.Fatalf("after Resize: %d entries, entry 5 = %d; want 128 and 0", len(c.ids), c.ids[5])
	}
}

// TestIdentityFollowsEvacuation is the carry under the copy engine: a forest
// with garbage between the chains is flipped back and forth — into one
// target, and into targets so small that Overflow supplies most of them —
// and after every flip the table is whole, every chain is reachable through
// AddrOf alone, and the ordinals of the live objects are exactly the ones
// the forest was built with. With blocked, the primary targets are blocked
// spaces, as npms compacts into: reset to bump form, filled exactly, and
// handed back to free-list form by FreeFrom after every flip.
func TestIdentityFollowsEvacuation(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		for _, overflow := range []bool{false, true} {
			t.Run(fmt.Sprintf("blocked=%v/overflow=%v", blocked, overflow), func(t *testing.T) {
				followEvacuation(t, blocked, overflow)
			})
		}
	}
}

func followEvacuation(t *testing.T, blocked, overflow bool) {
	const chains, chainLen = 16, 64
	h := New()
	h.TrackIdentity()
	from := h.NewSpace("flip-A", 1<<14)
	var heads []uint64
	for c := 0; c < chains; c++ {
		buildChain(t, h, from, 3) // garbage, with ordinals of its own
		head := buildChain(t, h, from, chainLen)
		h.GlobalWord(head)
		id, _ := h.IDOf(head)
		heads = append(heads, id)
	}
	target := func(name string, words int) *Space {
		if !blocked {
			return h.NewSpace(name, words)
		}
		s := h.NewBlockedSpace(name, words)
		s.Reset()
		return s
	}
	e := NewEvacuator(h, nil)
	e.Overflow = func(need int) *Space { return h.NewSpace("spill", max(need, 2*BlockWords)) }
	for round := 0; round < 4; round++ {
		to := []*Space{target("flip-B", 1<<14)}
		if overflow {
			to = []*Space{target("tiny-0", 64), target("tiny-1", 64)}
		}
		e.SetFrom(h.Spaces[:len(h.Spaces)-len(to)]...)
		e.Begin(to...)
		e.Run()
		for _, s := range h.Spaces[:len(h.Spaces)-len(e.Targets)] {
			s.Reset()
		}
		if e.ObjectsCopied != chains*chainLen {
			t.Fatalf("round %d: copied %d objects, want %d", round, e.ObjectsCopied, chains*chainLen)
		}
		for _, s := range e.Targets {
			if s.Blocks != nil {
				s.FreeFrom(s.Top)
			}
		}
		checkIdentity(t, h, e.Targets...)
		for c, id := range heads {
			// Ordinals within a chain run downwards from the head:
			// buildChain allocates the tail first.
			w, _ := h.AddrOf(id)
			for i, cars := 0, chainCars(t, h, w); i < chainLen; i++ {
				if cars[i] != int64(chainLen-1-i) {
					t.Fatalf("round %d: chain %d reached through AddrOf is not the chain built", round, c)
				}
			}
			for i := 0; i < chainLen; i++ {
				w, _ := h.AddrOf(id - uint64(i))
				if got := FixnumVal(h.Payload(w)[0]); got != int64(chainLen-1-i) {
					t.Fatalf("round %d: chain %d: #%d holds car %d, want %d", round, c, id-uint64(i), got, chainLen-1-i)
				}
			}
		}
	}
}

// TestIdentityTableDoubles: the ordinal → address half grows by doubling, so
// a run never holds more than twice the entries it needs and copies through
// at most as many again.
func TestIdentityTableDoubles(t *testing.T) {
	h := New()
	h.TrackIdentity()
	h.AddrOf(0) // the first question builds the half
	s := h.NewSpace("arena", 1<<16)
	caps := map[int]bool{}
	for i := 0; i < 20000; i++ {
		off, _ := s.Bump(1)
		h.InitObject(s, off, TVector, 0)
		caps[cap(h.addrs)] = true
	}
	if len(h.addrs) != 20000 || cap(h.addrs) != 32768 || len(caps) != 6 {
		t.Fatalf("20000 objects: %d entries, capacity %d, %d capacities on the way; want 20000, 32768, 6",
			len(h.addrs), cap(h.addrs), len(caps))
	}
}

// TestIdentityAllocates: with identity off InitObject allocates nothing; with
// it on a steady-state collection allocates nothing, the carry
// included.
func TestIdentityAllocates(t *testing.T) {
	h := New(WithConfig(Config{}))
	s := h.NewSpace("arena", 4096)
	if allocs := testing.AllocsPerRun(20, func() {
		s.Reset()
		for i := 0; i < 100; i++ {
			off, _ := s.Bump(3)
			h.InitObject(s, off, TPair, 2)
		}
	}); allocs != 0 {
		t.Errorf("InitObject with identity off allocates %.0f objects per 100, want 0", allocs)
	}

	h = New(WithConfig(Config{}))
	h.TrackIdentity()
	from, to := h.NewSpace("flip-A", 4096), h.NewSpace("flip-B", 4096)
	h.GlobalWord(buildChain(t, h, from, 500))
	e := NewEvacuator(h, nil)
	flip := func() {
		e.SetFrom(from)
		e.Begin(to)
		e.Run()
		from.Reset()
		from, to = to, from
	}
	flip()
	if allocs := testing.AllocsPerRun(20, flip); allocs != 0 {
		t.Errorf("a steady-state evacuation with identity on allocates %.0f objects/run, want 0", allocs)
	}
	if e.ObjectsCopied != 500 {
		t.Fatalf("copied %d objects, want 500 (the guard must measure real work)", e.ObjectsCopied)
	}
	checkIdentity(t, h, from)
}

// countingSink counts allocation events; every other callback is inherited
// from a nil EventSink and must not fire in the test below.
type countingSink struct {
	EventSink
	allocs int
}

func (s *countingSink) EvAlloc(Word, Type, int) { s.allocs++ }

// TestObservedAllocations: the sink, the allocation hook and the identity
// table hang off one test in InitObject, and whichever of them come and go
// the others see what they would have seen alone — the hook at its clock
// values, the sink every allocation while installed, the table every object.
func TestObservedAllocations(t *testing.T) {
	for _, identity := range []bool{false, true} {
		h := New()
		s := h.NewSpace("arena", 4096)
		if identity {
			h.TrackIdentity()
		}
		alloc := func(n int) {
			for i := 0; i < n; i++ {
				off, _ := s.Bump(2)
				h.InitObject(s, off, TBox, 1)
			}
		}
		var fired []uint64
		h.SetAllocHook(10, func() {
			fired = append(fired, h.Now())
			h.SetAllocHook(h.Now()+10, h.hook)
		})
		alloc(10) // clock 20: fires at 10 and 20
		sink := &countingSink{}
		h.SetEventSink(sink)
		alloc(10) // clock 40: fires at 30 and 40, ten events
		h.SetEventSink(nil)
		alloc(5) // clock 50: fires at 50, no events
		h.SetAllocHook(^uint64(0), nil)
		alloc(5)
		if fmt.Sprint(fired) != "[10 20 30 40 50]" || sink.allocs != 10 {
			t.Errorf("identity=%v: hook fired at %v, sink saw %d allocations; want [10 20 30 40 50] and 10", identity, fired, sink.allocs)
		}
		if id, ok := h.IDOf(PtrWord(s.ID, s.Top-2)); ok != identity || id != map[bool]uint64{true: 29}[identity] {
			t.Errorf("identity=%v: the last of 30 objects resolves to #%d, %v", identity, id, ok)
		}
		if !identity && h.observeAt != ^uint64(0) {
			t.Errorf("with nothing observing, InitObject still leaves its fast path at clock %d", h.observeAt)
		}
	}
}

// TestAddrOfBuildsLate: the ordinal → address half does not exist until
// somebody asks — a heap that only ever answers IDOf, as a recording one
// does, never pays for it — and the first AddrOf builds it from the entries
// as they stand: moved objects at their current addresses, a dead object
// whose space has been Reset unknown, objects allocated afterwards appended.
func TestAddrOfBuildsLate(t *testing.T) {
	h := New(WithConfig(Config{}))
	a := &movingAlloc{h: h, from: h.NewSpace("A", 4096), to: h.NewSpace("B", 4096)}
	h.SetAllocator(a)
	h.TrackIdentity()
	s := h.Scope()
	defer s.Close()
	p := h.Cons(h.Fix(1), h.Null())
	inner := h.Scope()
	h.Cons(h.Fix(9), h.Null())
	inner.Close()
	q := h.Cons(h.Fix(2), p)
	a.flip()
	if id, ok := h.IDOf(h.Get(q)); !ok || id != 2 || h.addrs != nil {
		t.Fatalf("before any AddrOf: IDOf = #%d, %v, and the address half exists: %v", id, ok, h.addrs != nil)
	}
	for id, want := range map[uint64]Word{0: h.Get(p), 1: 0, 2: h.Get(q), 3: 0} {
		if got, ok := h.AddrOf(id); got != want || ok != (want != 0) {
			t.Errorf("AddrOf(#%d) = %#x, %v, want %#x", id, uint64(got), ok, uint64(want))
		}
	}
	r := h.Cons(h.Fix(3), q)
	a.flip()
	for id, ref := range map[uint64]Ref{0: p, 2: q, 3: r} {
		if got, _ := h.AddrOf(id); got != h.Get(ref) {
			t.Errorf("after the build AddrOf(#%d) = %#x, the Ref sees %#x", id, uint64(got), uint64(h.Get(ref)))
		}
	}
	checkIdentity(t, h, a.from)
}
