package heap

// SpaceSet is a bitset of SpaceIDs: the devirtualized form of the tracing
// engines' from-region and region predicates. Every collector in this
// repository bounds its traces by *which spaces* a pointer targets, so the
// per-slot membership test collapses to one shift, one load, and one bit
// test — no indirect call. The zero value is an empty set.
//
// The backing array grows on Add and is retained across Clear, so re-arming
// a set between collections allocates nothing once it has covered the
// heap's largest SpaceID.
type SpaceSet struct {
	bits []uint64
}

// Add inserts id into the set, growing the backing array if needed.
func (ss *SpaceSet) Add(id SpaceID) {
	idx := int(id) >> 6
	for idx >= len(ss.bits) {
		ss.bits = append(ss.bits, 0)
	}
	ss.bits[idx] |= 1 << (id & 63)
}

// AddSpace inserts s's ID into the set.
func (ss *SpaceSet) AddSpace(s *Space) { ss.Add(s.ID) }

// Remove deletes id from the set.
func (ss *SpaceSet) Remove(id SpaceID) {
	if idx := int(id) >> 6; idx < len(ss.bits) {
		ss.bits[idx] &^= 1 << (id & 63)
	}
}

// Clear empties the set, keeping the backing array for reuse.
func (ss *SpaceSet) Clear() {
	for i := range ss.bits {
		ss.bits[i] = 0
	}
}

// Has reports whether id is in the set. IDs beyond the backing array are
// absent, so a set built at collection start safely rejects pointers into
// spaces created mid-collection (overflow targets are never from-spaces).
func (ss *SpaceSet) Has(id SpaceID) bool {
	idx := int(id) >> 6
	return idx < len(ss.bits) && ss.bits[idx]&(1<<(id&63)) != 0
}

// HasPtr reports whether pointer word w targets a member space. w must be a
// pointer; callers test IsPtr first.
func (ss *SpaceSet) HasPtr(w Word) bool { return ss.Has(PtrSpace(w)) }

// Len returns the number of member spaces.
func (ss *SpaceSet) Len() int {
	n := 0
	for _, b := range ss.bits {
		for ; b != 0; b &= b - 1 {
			n++
		}
	}
	return n
}
