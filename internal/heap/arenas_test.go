package heap

import (
	"strings"
	"testing"
)

// poison fills every word of s's memory with a pattern no allocation path
// writes, so that a recycled arena handed out uncleared shows.
func poison(s *Space) {
	for i := range s.Mem {
		s.Mem[i] = 0xdeadbeefdeadbeef
	}
}

// TestReleasedArenaComesBackZero: an arena a released heap hands back, or
// one Resize replaces, is the memory the next space of exactly its length
// gets — cleared, though it was poisoned. A space of any other length gets
// a new arena and leaves the released one where it is, and an arena a space
// was grown to is not handed back at all.
func TestReleasedArenaComesBackZero(t *testing.T) {
	const words = 2*BlockWords + 5
	var a Arenas
	h := New(WithArenas(&a))
	plain, blocked := h.NewSpace("plain", words), h.NewBlockedSpace("blocked", words+BlockWords)
	grown := h.NewSpace("grown", words/2)
	h.GlobalWord(buildChain(t, h, plain, 40))
	poison(plain)
	poison(blocked)
	poison(grown)
	replaced := &grown.Mem[0]
	grown.Resize(words + 1) // hands back its words/2 arena
	poison(grown)
	released := map[*Word]string{&plain.Mem[0]: "plain", &blocked.Mem[0]: "blocked", replaced: "replaced"}
	kept := &grown.Mem[0]
	h.Release()

	fresh := New(WithArenas(&a))
	for _, s := range []*Space{
		fresh.NewSpace("other", words-1),     // no released arena of that length
		fresh.ReserveSpace("grown", words+1), // the grown arena was not given back
	} {
		s.back()
		if name, ok := released[&s.Mem[0]]; ok || &s.Mem[0] == kept {
			t.Errorf("a %d-word space got a released arena (%q)", s.Cap(), name)
		}
	}
	for _, s := range []*Space{
		fresh.NewSpace("plain", words),
		fresh.ReserveBlockedSpaceSpan("blocked", words+BlockWords, BlockWords),
		fresh.NewSpace("replaced", words/2),
	} {
		s.back()
		if got := released[&s.Mem[0]]; got != s.Name {
			t.Errorf("space %s (%d words) got arena %q, want the released %s arena", s.Name, s.Cap(), got, s.Name)
		}
		for off, w := range s.Mem {
			if w != 0 {
				t.Fatalf("space %s word %d is %#x after recycling, want 0", s.Name, off, w)
			}
		}
	}
}

// TestReleasedHeapPanics: after Release, every use of the heap panics —
// allocation and a collection's end with the released-heap message, a
// root or a held pointer by finding nothing to read — and a space that asks
// for memory again does too. A heap without a recycler is released the
// same way.
func TestReleasedHeapPanics(t *testing.T) {
	for _, recycled := range []bool{false, true} {
		var opts []Option
		if recycled {
			opts = append(opts, WithArenas(new(Arenas)))
		}
		h, a := newBumpHeap(t, 4096, opts...)
		to := h.ReserveSpace("to", 4096)
		sc := h.Scope()
		pair := h.Cons(h.Fix(1), h.Null())
		g := h.Global(pair)
		w := h.Get(pair)
		h.Release()

		for _, tc := range []struct {
			name string
			f    func()
			want string
		}{
			{"Cons", func() { h.Cons(h.Fix(1), h.Fix(2)) }, releasedMsg},
			{"AllocRaw", func() { h.allocObject(TPair, 2) }, releasedMsg},
			{"EndCollection", func() { h.EndCollection(&GCStats{}, true, 0, 0, 0) }, releasedMsg},
			{"Resize", func() { a.s.Resize(64) }, releasedMsg},
			{"Begin", func() { NewEvacuator(h, nil).Begin(to) }, releasedMsg},
			{"Get", func() { h.Get(pair) }, "index out of range"},
			{"global", func() { h.Get(g) }, "index out of range"},
			{"Car", func() { h.Car(pair) }, "index out of range"},
			{"Header", func() { h.Header(w) }, "index out of range"},
			{"Scope.Close", func() { sc.Close() }, "heap: scopes closed out of order"},
		} {
			if got := panicText(tc.f); !strings.Contains(got, tc.want) {
				t.Errorf("recycled=%v: %s after Release panicked with %q, want %q", recycled, tc.name, got, tc.want)
			}
		}
		if a.s.Mem != nil || to.Mem != nil {
			t.Errorf("recycled=%v: a released space kept its memory", recycled)
		}
	}
}
