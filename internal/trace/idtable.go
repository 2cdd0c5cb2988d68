package trace

import (
	"fmt"
	"math"

	"rdgc/internal/heap"
)

// idTable maps an object's current address to its allocation ID, for the
// recorder and the replayer alike. Addresses are (space, header offset)
// pairs, so the table is one slice per space indexed by offset, holding
// ID+1 with zero meaning "no recorded object here". A space's slice is
// sized to the space's capacity the first time an address beyond it is
// stored — collectors add spaces and Resize scratch ones mid-run — so the
// cost is one 32-bit entry per heap word of every space an object has
// lived in.
//
// The table forgets an address only when the object moves away: a pointer
// to a moved-from address is unknown, while a dead object's entry stays
// until its address is reused.
type idTable struct {
	h      *heap.Heap
	spaces [][]uint32
}

// maxTableID is the largest allocation ID an entry can hold.
const maxTableID = math.MaxUint32 - 1

// lookup returns the ID of the object at address w.
func (t *idTable) lookup(w heap.Word) (uint64, bool) {
	sp, off := heap.PtrSpace(w), heap.PtrOff(w)
	if int(sp) < len(t.spaces) {
		if s := t.spaces[sp]; off < len(s) && s[off] != 0 {
			return uint64(s[off] - 1), true
		}
	}
	return 0, false
}

// set records that the object with the given ID now lives at address w,
// replacing whatever dead object's entry the address still carried.
func (t *idTable) set(w heap.Word, id uint64) error {
	if id > maxTableID {
		return fmt.Errorf("%w: allocation ID %d exceeds the identity table's %d", ErrInvalid, id, uint64(maxTableID))
	}
	*t.entry(w) = uint32(id) + 1
	return nil
}

// move carries the ID at address old over to address new and returns it;
// ok is false when no recorded object lived at old.
func (t *idTable) move(old, new heap.Word) (id uint64, ok bool) {
	if id, ok = t.lookup(old); ok {
		t.spaces[heap.PtrSpace(old)][heap.PtrOff(old)] = 0
		*t.entry(new) = uint32(id) + 1
	}
	return id, ok
}

// entry returns the table slot for address w, building or extending the
// space's slice when w lies beyond it.
func (t *idTable) entry(w heap.Word) *uint32 {
	sp, off := heap.PtrSpace(w), heap.PtrOff(w)
	if int(sp) >= len(t.spaces) || off >= len(t.spaces[sp]) {
		t.grow(sp)
	}
	return &t.spaces[sp][off]
}

// grow sizes space sp's slice to the space's current capacity, keeping
// the entries it already had.
func (t *idTable) grow(sp heap.SpaceID) {
	if int(sp) >= len(t.spaces) {
		t.spaces = append(t.spaces, make([][]uint32, len(t.h.Spaces)-len(t.spaces))...)
	}
	s := make([]uint32, t.h.Spaces[sp].Cap())
	copy(s, t.spaces[sp])
	t.spaces[sp] = s
}
