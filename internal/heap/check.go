package heap

import "fmt"

// Check validates the heap's structural invariants: every space below its
// bump pointer parses as a sequence of well-formed blocks, no block carries
// a stale mark bit, every swept block of a blocked space has a sound free
// list, and every pointer reachable from the roots targets a valid object
// header. Tests call it after collections; it is too slow for
// production paths.
func Check(h *Heap) error {
	for _, s := range h.Spaces {
		if !s.MarksClear() {
			return fmt.Errorf("heap.Check: %v: mark bitmap not clear", s)
		}
		off := 0
		for off < s.Top {
			hdr := s.Mem[off]
			if !IsHeader(hdr) {
				return fmt.Errorf("heap.Check: %v: word %d is not a header (%#x)", s, off, uint64(hdr))
			}
			if Marked(hdr) {
				return fmt.Errorf("heap.Check: %v: stale mark bit at %d", s, off)
			}
			if t := HeaderType(hdr); t >= numTypes {
				return fmt.Errorf("heap.Check: %v: bad type %d at %d", s, t, off)
			}
			n := ObjWords(hdr)
			if n <= 0 || off+n > s.Top {
				return fmt.Errorf("heap.Check: %v: block at %d overruns (size %d)", s, off, n)
			}
			off += n
		}
		if off != s.Top {
			return fmt.Errorf("heap.Check: %v: parse ended at %d, top %d", s, off, s.Top)
		}
		if fault := s.blockTableFault(); fault != "" {
			return fmt.Errorf("heap.Check: %w: %v %s", ErrBadBlockTable, s, fault)
		}
	}

	var err error
	seen := map[Word]bool{}
	var walk func(w Word)
	walk = func(w Word) {
		if err != nil || !IsPtr(w) || seen[w] {
			return
		}
		seen[w] = true
		if int(PtrSpace(w)) >= len(h.Spaces) {
			err = fmt.Errorf("heap.Check: pointer to unknown space %d", PtrSpace(w))
			return
		}
		s := h.Spaces[PtrSpace(w)]
		off := PtrOff(w)
		if off >= s.Top {
			err = fmt.Errorf("heap.Check: pointer past bump pointer: %v off %d", s, off)
			return
		}
		hdr := s.Mem[off]
		if !IsHeader(hdr) {
			err = fmt.Errorf("heap.Check: pointer to non-header at %v off %d", s, off)
			return
		}
		if HeaderType(hdr) == TFree {
			err = fmt.Errorf("heap.Check: reachable pointer into free block at %v off %d", s, off)
			return
		}
		ScanObject(s, off, func(slot *Word) { walk(*slot) })
	}
	h.VisitRoots(func(slot *Word) { walk(*slot) })
	return err
}
