package heap

import "fmt"

// Space is a contiguous arena of words. Collectors own spaces: a semispace
// collector owns two, the non-predictive collector owns k equal "steps",
// and so on. Allocation within a space is a bump of Top; mark/sweep
// collectors instead thread a free list through the space and keep Top at
// the high-water mark so the space stays linearly parsable.
//
// A space that only evacuation enters (a to-space, a shadow step), and a
// step the allocation cursor has yet to reach, starts as a reservation
// (ReserveSpace): it has its ID, name and capacity, and no memory.
// Everything but the memory reads it as the fresh space it stands for — an
// empty one of full capacity, or, once FreeFrom(0) has formatted it, one
// free run per block with Top at capacity — and Cap, Free, NumBlocks, the
// footprint and String all count the reserved words. It gets memory, at
// exactly that capacity, when a collection first names it as a target or
// an allocation first reaches it (Back). Resize gives any space fresh
// memory; Reset keeps what a space has. On a heap built WithArenas, fresh
// memory may be a recycled arena, cleared, and the memory a space gives up
// goes back to the recycler (see Arenas).
type Space struct {
	ID  SpaceID
	Mem []Word
	Top int // next free word index for bump allocation

	// reserved is the capacity of a reservation, which has no memory yet
	// (Mem, marks and dirty are nil), and 0 once the space has memory. It
	// sits beside Mem and Top, which Cap and Free read with it.
	reserved int

	Name string

	// Blocks, when non-nil, is the per-block metadata of a mark/sweep-
	// managed space (see block.go); bump-allocated spaces leave it nil.
	Blocks *BlockTable

	// marks is the side mark bitmap (one bit per word) and dirty its
	// per-block summary (one bit per block); see block.go.
	marks []uint64
	dirty []uint64

	// ids is the space's share of the heap's identity table (identity.go):
	// indexed by header offset, the object's allocation ordinal plus one,
	// zero where no identified object has its header. Nil unless the heap
	// tracks identity; empty, not nil, on a tracked reservation, so that
	// Back knows to size it.
	ids []uint32

	// arenas is the heap's recycler (WithArenas), nil without one, and
	// spent once the heap is released; made is the capacity the space was
	// created with, the one length of arena it gives back (giveBack).
	arenas *Arenas
	made   int
}

// Cap returns the capacity of the space in words, reserved words included.
func (s *Space) Cap() int { return len(s.Mem) + s.reserved }

// Free returns the number of unallocated words remaining for bump
// allocation, counting a reservation's words as free. (Bump itself refuses
// every request until the space has memory.)
func (s *Space) Free() int { return s.Cap() - s.Top }

// Reserved reports whether the space is a reservation, still without its
// memory (see Back).
func (s *Space) Reserved() bool { return s.reserved != 0 }

// Used returns the occupancy of the space: words below the bump pointer.
func (s *Space) Used() int { return s.Top }

// Reset empties the space for reuse. The contents are not zeroed; all
// allocation paths initialize every word they hand out. Any mark bits are
// dropped (in O(dirty blocks)) so a recycled space starts unmarked, and the
// identity entries of the objects left behind (in O(Top)) so a recycled
// address names nobody. A blocked space comes out in bump form, every free
// list empty, until FreeFrom returns it to free-list form. A reservation
// comes out a reservation, in bump form.
func (s *Space) Reset() {
	if len(s.ids) != 0 {
		clear(s.ids[:s.Top])
	}
	s.Top = 0
	s.ClearMarkBits()
	if bt := s.Blocks; bt != nil {
		for b := range bt.FreeHead {
			bt.FreeHead[b] = NoFreeBlock
			bt.MaxRun[b] = 0
		}
		clear(bt.Unswept)
	}
}

// Bump allocates n words by bumping Top. It returns the offset of the first
// word and false if the space lacks room.
func (s *Space) Bump(n int) (int, bool) {
	if s.Top+n > len(s.Mem) {
		return 0, false
	}
	off := s.Top
	s.Top += n
	return off, true
}

// Resize replaces the space's storage with a fresh arena of the given size,
// discarding the old contents (the old arena goes back to the heap's
// recycler, if it has one and the arena has the space's first capacity;
// see giveBack), and sizes the side bitmaps (and the identity
// entries, when the heap tracks identity) to match. It is how collectors grow
// scratch spaces (to-spaces between collections); reassigning Mem directly
// would orphan the side tables. A reservation gets its memory here too.
func (s *Space) Resize(words int) {
	if words <= 0 {
		panic("heap: Resize to non-positive size")
	}
	s.allocate(words)
}

// Back gives a reservation its memory, at its reserved capacity, in the
// form it was reserved in: empty, or — for a reservation FreeFrom(0) has
// formatted — one free run per block, as FreeFrom(0) writes them. A space
// that has memory is left as it is. The evacuator calls it on each target
// of a run before copying into any; an allocation ladder calls it on the
// reservation its cursor has reached when Bump (or AllocFromBlock's list
// walk) refuses it.
func (s *Space) Back() {
	if s.Mem == nil {
		s.backReserved()
	}
}

// backReserved is Back's work, kept out of line so that Back, which the
// evacuator calls on every target of every run, stays in line there.
func (s *Space) backReserved() {
	listed := s.Top != 0
	s.allocate(s.reserved)
	if listed {
		s.FreeFrom(0)
	}
}

// allocate is the one place a space's memory is made: a zeroed arena of
// words words, the side bitmaps to match, and the identity entries when the
// heap tracks identity. The arena it replaces, if any, goes back to the
// recycler first. The space comes out empty and no longer reserved.
func (s *Space) allocate(words int) {
	s.giveBack()
	s.Mem = s.arenas.take(words)
	s.marks = make([]uint64, (words+63)/64)
	s.dirty = make([]uint64, ((words+BlockMask)>>BlockShift+63)/64)
	if s.ids != nil {
		s.ids = make([]uint32, words)
	}
	s.Top = 0
	s.reserved = 0
}

func (s *Space) String() string {
	return fmt.Sprintf("space %d %q: %d/%d words", s.ID, s.Name, s.Top, s.Cap())
}

// NewSpace creates a space of the given size in words and registers it with
// the heap so pointers into it can be dereferenced.
func (h *Heap) NewSpace(name string, words int) *Space {
	if words <= 0 {
		panic("heap: NewSpace with non-positive size")
	}
	s := h.ReserveSpace(name, words)
	s.allocate(words)
	return s
}

// ReserveSpace creates a reservation of the given size in words: a space
// with its ID, name and capacity registered, and no memory until an
// evacuation first targets it or an allocation first reaches it (Back), or
// Resize gives it some. It is how collectors create the spaces that only
// evacuation enters and the steps below the allocation cursor, so that a
// run which never collects into one, or never allocates that far, never
// pays for it.
func (h *Heap) ReserveSpace(name string, words int) *Space {
	if words <= 0 {
		panic("heap: ReserveSpace with non-positive size")
	}
	if len(h.Spaces) >= 1<<16 {
		panic("heap: too many spaces")
	}
	s := &Space{ID: SpaceID(len(h.Spaces)), Name: name, reserved: words, arenas: h.arenas, made: words}
	if h.identity {
		s.ids = []uint32{}
	}
	h.Spaces = append(h.Spaces, s)
	return s
}

// SpaceOf returns the space that pointer word w points into.
func (h *Heap) SpaceOf(w Word) *Space { return h.Spaces[PtrSpace(w)] }

// Header returns the header word of the object that w points to.
func (h *Heap) Header(w Word) Word { return h.SpaceOf(w).Mem[PtrOff(w)] }

// Payload returns the payload words of the object that w points to,
// excluding the hidden birth stamp when census tracking is enabled.
func (h *Heap) Payload(w Word) []Word {
	s := h.SpaceOf(w)
	off := PtrOff(w)
	size := HeaderSize(s.Mem[off])
	return s.Mem[off+1+h.extraWords : off+1+size]
}

// ObjWords returns the total footprint in words (header included) of the
// object whose header word is hdr.
func ObjWords(hdr Word) int { return 1 + HeaderSize(hdr) }
