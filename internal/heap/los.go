package heap

import "fmt"

// LargeObjectSpace segregates objects too big for blocked allocation
// (footprint above LargeObjectWords). Each large object gets a dedicated
// space holding exactly that object at offset 0, so large objects are never
// copied, never straddle anything, and die by returning their whole space
// to a reuse pool — sweep is a per-object mark-bit probe, not a scan.
//
// The pool recycles dead spaces best-fit (smallest sufficient capacity,
// lowest ID on ties), so steady-state large allocation creates no new
// spaces. Pooled spaces are scratch: pointers into them are dangling, and
// VerifyLive lists only the live ones.
type LargeObjectSpace struct {
	h    *Heap
	name string
	live []*Space
	pool []*Space
	seq  int

	// words is the footprint of live large objects (header included).
	words int
}

// NewLargeObjectSpace creates an empty large-object space; name prefixes
// the per-object space names.
func NewLargeObjectSpace(h *Heap, name string) *LargeObjectSpace {
	return &LargeObjectSpace{h: h, name: name}
}

// FromPool takes a pooled space with capacity >= total, preferring the
// smallest (then lowest-ID) fit, and returns false when none fits.
func (l *LargeObjectSpace) FromPool(total int) (*Space, bool) {
	best := -1
	for i, s := range l.pool {
		if s.Cap() < total {
			continue
		}
		if best < 0 || s.Cap() < l.pool[best].Cap() ||
			(s.Cap() == l.pool[best].Cap() && s.ID < l.pool[best].ID) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	s := l.pool[best]
	l.pool = append(l.pool[:best], l.pool[best+1:]...)
	l.adopt(s, total)
	return s, true
}

// Alloc returns a space holding room for one large object of total words at
// offset 0, reusing the pool when possible and minting a fresh space (sized
// in whole blocks) otherwise. The caller initializes the object with
// Heap.InitObject(s, 0, ...).
func (l *LargeObjectSpace) Alloc(total int) *Space {
	if total <= LargeObjectWords {
		panic(fmt.Sprintf("heap: large-object alloc of %d words (threshold %d)", total, LargeObjectWords))
	}
	if s, ok := l.FromPool(total); ok {
		return s
	}
	s := l.h.NewSpace(fmt.Sprintf("%s-los-%d", l.name, l.seq), (total+BlockMask)&^BlockMask)
	l.seq++
	l.adopt(s, total)
	return s
}

func (l *LargeObjectSpace) adopt(s *Space, total int) {
	s.Top = total
	l.live = append(l.live, s)
	l.words += total
}

// Sweep scans the live large objects after a mark: survivors have their
// mark bits cleared in place, dead ones return to the pool. It returns the
// words examined (the footprint of every pre-sweep live object, matching
// the blocked sweep's accounting).
func (l *LargeObjectSpace) Sweep() uint64 {
	var swept uint64
	kept := l.live[:0]
	for _, s := range l.live {
		swept += uint64(s.Top)
		if s.MarkedAt(0) {
			s.ClearMarkBits()
			kept = append(kept, s)
			continue
		}
		l.words -= s.Top
		s.Reset()
		l.pool = append(l.pool, s)
	}
	// Dead entries were compacted out; drop the stale tail references so the
	// pooled spaces are not pinned twice.
	for i := len(kept); i < len(l.live); i++ {
		l.live[i] = nil
	}
	l.live = kept
	return swept
}

// AppendLive appends the live large-object spaces to dst (for marker
// regions and VerifySpec.Live lists) and returns it.
func (l *LargeObjectSpace) AppendLive(dst []*Space) []*Space {
	return append(dst, l.live...)
}

// LiveWords returns the footprint of the live large objects.
func (l *LargeObjectSpace) LiveWords() int { return l.words }

// LiveObjects returns the number of live large objects.
func (l *LargeObjectSpace) LiveObjects() int { return len(l.live) }

// PooledSpaces returns the number of spaces waiting in the reuse pool.
func (l *LargeObjectSpace) PooledSpaces() int { return len(l.pool) }
