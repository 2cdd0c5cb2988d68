package heap

import "sync"

// Arenas recycles space memory between the heaps of one run. A heap built
// WithArenas takes each space's Mem from it when a free arena of exactly
// the requested length is there, clearing it first, so every space still
// starts zeroed; otherwise it makes a new one. Resize hands back the arena
// it replaces, and Release every arena the heap holds, if the arena has
// the length its space was created with: an arena a space grew to is left
// to Go's collector (see giveBack). The recycler holds only what its heaps
// released, with no size classes and no cap: whoever makes it bounds it,
// by dropping it when the run ends.
//
// Heaps on different goroutines may share one Arenas; it is the only state
// they share, and an arena is in at most one place at a time — a live
// space or the free lists. The zero value is ready to use.
type Arenas struct {
	mu   sync.Mutex
	free map[int][][]Word // arena length -> released arenas of that length
}

// spent is the recycler of a released heap's spaces: asking it for memory
// is a use after release.
var spent Arenas

// WithArenas builds the heap on a's memory: see Arenas.
func WithArenas(a *Arenas) Option { return func(h *Heap) { h.arenas = a } }

// take returns a zeroed arena of words words: a released one of exactly
// that length, cleared, or else a new one. A nil Arenas always makes one.
func (a *Arenas) take(words int) []Word {
	if a == nil {
		return make([]Word, words)
	}
	if a == &spent {
		panic(releasedMsg)
	}
	a.mu.Lock()
	var mem []Word
	if l := a.free[words]; len(l) > 0 {
		mem = l[len(l)-1]
		l[len(l)-1] = nil
		a.free[words] = l[:len(l)-1]
	}
	a.mu.Unlock()
	if mem == nil {
		return make([]Word, words)
	}
	clear(mem)
	return mem
}

// give hands mem back for a later take; the caller holds no reference to
// it afterwards. A nil Arenas keeps nothing.
func (a *Arenas) give(mem []Word) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.free == nil {
		a.free = make(map[int][][]Word)
	}
	a.free[len(mem)] = append(a.free[len(mem)], mem[:len(mem):len(mem)])
	a.mu.Unlock()
}

const releasedMsg = "heap: use of a released heap"

// releasedAlloc is a released heap's allocator: every allocation panics.
type releasedAlloc struct{}

func (releasedAlloc) AllocRaw(Type, int) Word { panic(releasedMsg) }

// Release ends the heap's life: every space hands its memory back to the
// heap's recycler (WithArenas; without one the memory is simply dropped),
// and the heap is left unusable. An allocation, a root access, a pointer
// resolved through the heap or a collection after Release panics; nothing
// the heap or its collector holds still reaches a released arena, so no use
// can read another heap's words. Call it once the heap's results are read.
func (h *Heap) Release() {
	for _, s := range h.Spaces {
		s.release()
	}
	h.Spaces, h.refs, h.scopes, h.globals, h.addrs = nil, nil, nil, nil, nil
	h.alloc, h.arenas = releasedAlloc{}, &spent
}

// released reports whether Release has run on the heap.
func (h *Heap) released() bool {
	_, ok := h.alloc.(releasedAlloc)
	return ok
}

// release hands the space's memory back and leaves it without any: a
// later request for memory (Resize, an evacuation entering it) panics.
func (s *Space) release() {
	s.giveBack()
	s.Mem, s.marks, s.dirty, s.ids = nil, nil, nil, nil
	s.Top, s.reserved = 0, 0
	s.arenas = &spent
}

// giveBack hands the space's memory to the recycler if it is an arena of
// the length the space was created with. A grown arena's length follows
// one heap's live data, so a later space seldom asks for exactly it: kept,
// it would sit in the free lists as live memory, and the host collector,
// which paces itself by live memory, would let the whole heap grow by it.
func (s *Space) giveBack() {
	if len(s.Mem) == s.made {
		s.arenas.give(s.Mem)
	}
}
