package heap

import "math"

// Object identity: the one way a fact that does not fit in a header follows
// an object. An object's ID is its allocation ordinal — 0 for the first
// object the heap allocates, 1 for the next — and the table is two halves
// kept in step: per space a []uint32 indexed by header offset holding
// ordinal + 1 (Space.ids; zero means no identified object has its header
// there), and one slice from ordinal to the object's current address
// (Heap.addrs, doubling as it fills). InitObject enters each new object,
// the evacuator carries the entry with every copy it makes (carryIdentity),
// and Space.Reset and Resize drop the entries with the storage. What reads
// it — the trace recorder and replayer, the age oracle — never writes it.
//
// The table is off, and costs nothing, until TrackIdentity. An address
// resolves for as long as the object lives there: the address an object
// moved away from is unknown at once, a dead object's address until the
// space is Reset or the address handed out again. An ordinal is never
// reclaimed: AddrOf of a dead object's ID is the last address it had. The
// ordinal → address half is eight bytes per object ever allocated and only
// the replayer reads it, so it is built the first time AddrOf is asked and
// kept from then on: a recording heap never has one.

// MaxIdentity is the largest ID an entry can hold. The recorder and the
// replayer refuse to go that far; the ordinal → address half alone would be
// 32 GB by then.
const MaxIdentity = math.MaxUint32 - 1

// TrackIdentity switches the identity table on, for the rest of the heap's
// life. Its readers call it on a heap that has not allocated yet, so that
// every object has an ID (an object allocated earlier would have none);
// collectors and spaces may already exist. A second call does nothing.
func (h *Heap) TrackIdentity() {
	if h.identity {
		return
	}
	h.identity = true
	for _, s := range h.Spaces {
		s.ids = make([]uint32, len(s.Mem)) // empty, not nil, on a reservation
	}
	h.rearm()
}

// IDOf returns the ID of the object whose header is at address w; ok is
// false when no identified object lives there (or identity is off).
func (h *Heap) IDOf(w Word) (id uint64, ok bool) {
	if sp := int(PtrSpace(w)); sp < len(h.Spaces) {
		if ids, off := h.Spaces[sp].ids, PtrOff(w); off < len(ids) && ids[off] != 0 {
			return uint64(ids[off] - 1), true
		}
	}
	return 0, false
}

// AddrOf returns the current address of the object with the given ID; ok is
// false when no such object has been allocated, when it was dead and its
// space Reset before the first AddrOf, or when identity is off.
func (h *Heap) AddrOf(id uint64) (w Word, ok bool) {
	if h.addrs == nil && h.identity {
		n := int(h.Stats.ObjectsAllocated)
		h.addrs = make([]Word, n, max(2*n, 1024))
		for _, s := range h.Spaces {
			for off, e := range s.ids {
				if e != 0 {
					h.addrs[e-1] = PtrWord(s.ID, off)
				}
			}
		}
	}
	if id < uint64(len(h.addrs)) {
		w = h.addrs[id]
	}
	return w, w != 0
}

// identify enters the object just initialized at s[off], address w, under
// the next ordinal, replacing whatever dead object's entry the address
// still carried.
func (h *Heap) identify(s *Space, off int, w Word) {
	s.ids[off] = uint32(h.Stats.ObjectsAllocated) // the ordinal, plus one
	if h.addrs == nil {
		return
	}
	if n := len(h.addrs); n == cap(h.addrs) {
		// Doubling, not append's growth: past 256 entries that is a quarter
		// at a time, and a long run would copy through several times the
		// table it ends up with.
		h.addrs = append(make([]Word, 0, 2*n), h.addrs...)
	}
	h.addrs = append(h.addrs, w)
}

// carryIdentity moves the entry of the object an evacuator has just copied
// from from[off] to to[toOff], whose new address is fwd.
func (h *Heap) carryIdentity(from *Space, off int, to *Space, toOff int, fwd Word) {
	id := from.ids[off]
	from.ids[off] = 0
	to.ids[toOff] = id
	if h.addrs != nil && id != 0 {
		h.addrs[id-1] = fwd
	}
}
