package heap

// WalkSpace visits every block in s below the bump pointer, in address
// order, including TFree blocks in mark/sweep-managed spaces. The callback
// receives the block's header offset and header word; returning false stops
// the walk. Spaces stay linearly parsable at all times, which this relies on.
// A reservation's Top is 0, so the walk visits nothing in it.
func WalkSpace(s *Space, f func(off int, hdr Word) bool) {
	for off := 0; off < s.Top; {
		hdr := s.Mem[off]
		if !IsHeader(hdr) {
			panic("heap: space not parsable (corrupt or mid-collection)")
		}
		if !f(off, hdr) {
			return
		}
		off += ObjWords(hdr)
	}
}

// ScanObject applies visit to every payload slot of the object at offset
// off in space s that could hold a pointer. Raw-payload objects (flonums,
// bytevectors) are skipped entirely; the hidden census word is a fixnum and
// is visited harmlessly.
func ScanObject(s *Space, off int, visit func(slot *Word)) {
	hdr := s.Mem[off]
	if RawPayload(HeaderType(hdr)) {
		return
	}
	size := HeaderSize(hdr)
	for i := off + 1; i <= off+size; i++ {
		visit(&s.Mem[i])
	}
}

// PointsInto reports whether the object at offset off in space s holds a
// pointer satisfying pred, stopping at the first that does. It is the
// question every remembered-set rebuild asks of an object, with pred the
// region ("into steps j+1..k", "into the nursery"). Raw-payload objects and
// free blocks — whose words are not slots — hold none; the hidden census
// word is a fixnum and is never offered to pred.
func PointsInto(s *Space, off int, pred func(w Word) bool) bool {
	hdr := s.Mem[off]
	if t := HeaderType(hdr); RawPayload(t) || t == TFree {
		return false
	}
	for _, w := range s.Mem[off+1 : off+ObjWords(hdr)] {
		if IsPtr(w) && pred(w) {
			return true
		}
	}
	return false
}

// LiveWords sums the footprints of non-free blocks in s.
func LiveWords(s *Space) int {
	n := 0
	WalkSpace(s, func(_ int, hdr Word) bool {
		if HeaderType(hdr) != TFree {
			n += ObjWords(hdr)
		}
		return true
	})
	return n
}
