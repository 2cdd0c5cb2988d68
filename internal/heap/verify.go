package heap

import (
	"errors"
	"fmt"
	"math/bits"
)

// This file implements the repository's one heap checker. Verify validates
// the full invariant catalog a collector promises between collections, over
// the spaces a VerifySpec declares live; Check is the same catalog with every
// space live, so it also parses the scratch spaces a collector's spec leaves
// out:
//
//   1. Every live space parses as a sequence of well-formed blocks ending
//      exactly at its bump pointer.
//   2. No block header is a forwarding pointer (stale forwarding) or carries
//      a mark bit (stale mark) after a collection has finished, and no bit
//      of the mark bitmap is set then either; while a mark is in progress,
//      or in a block awaiting its lazy sweep, every set bit heads a non-free
//      object (the sweep reads each one as a survivor's header).
//   3. Every pointer — in a root slot or a live object's payload — targets a
//      live space, lands exactly on an object start, and that object is not
//      a free block.
//   4. With census tracking on, every object's hidden birth-stamp word is a
//      fixnum no later than the current allocation clock.
//   5. Remembered-set completeness: for every rule a collector declares,
//      every object whose fields demand an entry is actually in the set
//      (§8.4's six situations reduce to these per-collector rules).
//   6. Every swept block of a blocked space has a free list the first-fit
//      allocator can trust: in-block, address-ordered, linking exactly the
//      block's free runs of two or more words, none longer than MaxRun —
//      a mark/sweep space's BlockWords blocks and a non-predictive
//      mark/sweep step's single block alike.
//
// A reservation (Space.Back) holds no object: it parses as nothing, a
// pointer into it is dangling, and its block table must be the form its
// runs take without memory — no list, each MaxRun its block's run below
// Top (FreeFrom), which is 0 for a reservation in bump form.
//
// The parse records each live space's block starts in a bitmap, one bit per
// word below the bump pointer; the pointer checks test a bit and read the
// header from the space. One address-ordered walk per live space then checks
// every object (invariants 3-5), then the roots, then the block tables, so
// the diagnoses come out in the same order on every call.
//
// Verification is opt-in: Heap.EndCollection fires the SetAfterGC hook at the
// end of every collection, and the hook is nil unless a test (or the fuzz
// harness) installs a verifying callback, so benchmarks pay one nil check per
// collection and nothing per slot.

// Error kinds reported by Verify, one per invariant class, so tests can
// assert that a seeded corruption produces exactly the expected diagnosis.
var (
	ErrMalformedHeader = errors.New("malformed header")
	ErrStaleForwarding = errors.New("stale forwarding pointer")
	ErrStaleMark       = errors.New("stale mark bit")
	ErrBlockOverrun    = errors.New("block overruns space")
	ErrDanglingPointer = errors.New("dangling pointer")
	ErrBadCensusWord   = errors.New("bad census word")
	ErrRemsetMissing   = errors.New("remembered-set entry missing")
	ErrBadBlockTable   = errors.New("bad block table")
)

// RemsetRule is one remembered-set completeness contract: whenever a live
// object obj holds a pointer val with Needs(obj, val) true, Has(obj) must be
// true. Collectors declare one rule per remembered set. Rules state
// completeness only — sets may hold extra (stale or nepotistic) entries.
type RemsetRule struct {
	Name string
	// Needs reports whether an object obj containing pointer val requires a
	// remembered-set entry for obj.
	Needs func(obj, val Word) bool
	// Has reports whether obj is currently in the remembered set.
	Has func(obj Word) bool
}

// VerifySpec describes a collector's invariant surface to the verifier.
type VerifySpec struct {
	// Live lists the spaces reachable pointers may target. Spaces not listed
	// (to-spaces, shadow steps) are scratch: a pointer into one is dangling.
	// An empty Live means every space is live.
	Live []*Space
	// Remsets are the collector's remembered-set completeness contracts.
	Remsets []RemsetRule

	// MarkingActive declares that an incremental mark is in progress: mark
	// bits are legitimately set on a prefix of the live graph, so the
	// stale-mark bitmap check only asks that each set bit head a non-free
	// object. Unmarked objects may still be live (not yet traced), so no
	// reachability conclusions are drawn.
	//
	// The other incremental phase needs no declaration: a block whose lazy
	// sweep is pending says so in its table (BlockTable.UnsweptAt). There the
	// completed mark is authoritative — an unmarked object is dead storage
	// awaiting its sweep — so the verifier skips such objects' payloads and
	// census words (dead storage, like free-block interiors), treats
	// pointers to them as dangling, and lets set bits stand in the pending
	// blocks (survivors keep their marks until their block is swept), as
	// long as each heads a non-free object.
	MarkingActive bool
}

// Verifiable is implemented by collectors that can describe their current
// invariant surface. The spec must be recomputed per call: space roles
// change as collections flip, rename, and grow spaces.
type Verifiable interface {
	VerifySpec() VerifySpec
}

// VerifyCollector verifies h under c's declared spec, or under a whole-heap
// spec with no remembered-set rules when c declares none.
func VerifyCollector(h *Heap, c Collector) error {
	if v, ok := c.(Verifiable); ok {
		return Verify(h, v.VerifySpec())
	}
	return Verify(h, VerifySpec{})
}

// Check verifies the whole heap: every space live, no remembered-set rules.
// Under a collector's spec a scratch space is only a place no pointer may
// reach; Check parses it too, so callers run it beside VerifyCollector.
// Tests call it after collections; it is too slow for production paths.
func Check(h *Heap) error { return Verify(h, VerifySpec{}) }

// maxVerifyErrors caps the diagnoses collected per Verify call; one is
// usually enough to localize a bug and corrupt heaps can fail everywhere.
const maxVerifyErrors = 8

// verifier carries one Verify run's state.
type verifier struct {
	h    *Heap
	spec VerifySpec
	// live[id] reports whether space id may hold reachable objects.
	live []bool
	// starts[id] has bit off set when a block of live space id starts at
	// off, for the pointer-target and mark-bit checks.
	starts [][]uint64
	errs   []error
}

func (v *verifier) errorf(kind error, format string, args ...any) bool {
	if len(v.errs) < maxVerifyErrors {
		v.errs = append(v.errs, fmt.Errorf("heap.Verify: %w: %s", kind, fmt.Sprintf(format, args...)))
	}
	return len(v.errs) < maxVerifyErrors
}

// Verify checks every invariant in the catalog above and returns all
// diagnoses joined (nil for a clean heap). It never mutates the heap.
func Verify(h *Heap, spec VerifySpec) error {
	v := &verifier{h: h, spec: spec, live: make([]bool, len(h.Spaces))}
	if len(spec.Live) == 0 {
		for i := range v.live {
			v.live[i] = true
		}
	} else {
		for _, s := range spec.Live {
			v.live[s.ID] = true
		}
	}
	v.starts = make([][]uint64, len(h.Spaces))

	v.parseSpaces()
	if len(v.errs) == 0 {
		// Pointer checks read the block-start bitmaps; skip them when the
		// parse already failed, as the bitmaps may be incomplete.
		v.scanObjects()
		v.scanRoots()
		v.checkBlockTables()
	}
	return errors.Join(v.errs...)
}

// isStart reports whether a block of live space s starts at off, which must
// lie below the space's bump pointer.
func (v *verifier) isStart(s *Space, off int) bool {
	return v.starts[s.ID][off>>6]&(1<<(off&63)) != 0
}

// parseSpaces walks every live space below its bump pointer and builds the
// block-start bitmaps, diagnosing malformed headers, stale forwarding
// pointers, stale marks, bad types, and size overruns.
func (v *verifier) parseSpaces() {
	for _, s := range v.h.Spaces {
		if !v.live[s.ID] {
			continue
		}
		// Marks live in the side bitmap; any bit still set after a
		// collection is the bitmap analogue of a stale header mark. The
		// header-bit check below stays as a defense: no engine writes it
		// anymore, so a set bit means corruption. Incremental phases are
		// the exception: mid-mark bits and pending-sweep survivor bits are
		// both legitimate.
		if !v.spec.MarkingActive && !s.sweepPending() && !s.MarksClear() {
			if !v.errorf(ErrStaleMark, "%v: mark bitmap not clear after collection", s) {
				return
			}
		}
		if s.Mem == nil {
			continue // a reservation: nothing to parse
		}
		starts := make([]uint64, (s.Top+63)/64)
		v.starts[s.ID] = starts
		off := 0
		for off < s.Top {
			hdr := s.Mem[off]
			if !IsHeader(hdr) {
				if IsPtr(hdr) {
					if !v.errorf(ErrStaleForwarding, "%v: block at %d forwards to space %d off %d after collection",
						s, off, PtrSpace(hdr), PtrOff(hdr)) {
						return
					}
				} else if !v.errorf(ErrMalformedHeader, "%v: word %d is not a header (%#x)", s, off, uint64(hdr)) {
					return
				}
				break // cannot resynchronize a broken parse
			}
			if t := HeaderType(hdr); t >= numTypes {
				if !v.errorf(ErrMalformedHeader, "%v: bad type %d at %d", s, t, off) {
					return
				}
				break
			}
			if Marked(hdr) && !v.errorf(ErrStaleMark, "%v: mark bit still set at %d", s, off) {
				return
			}
			n := ObjWords(hdr)
			if n <= 0 || off+n > s.Top {
				if !v.errorf(ErrBlockOverrun, "%v: block at %d has %d words, %d remain", s, off, n, s.Top-off) {
					return
				}
				break
			}
			starts[off>>6] |= 1 << (off & 63)
			off += n
		}
		if off == s.Top && (v.spec.MarkingActive || s.sweepPending()) && !v.checkMarkBits(s) {
			return
		}
	}
}

// checkMarkBits diagnoses the mark bits of a space whose bitmap may hold
// some: every bit set while a mark is in progress, or in a block awaiting
// its lazy sweep, must head a non-free object of the walk (the sweep takes
// each one for a survivor's header), and every bit in a block already swept
// is stale. It reports the first bad bit of the space, and false once the
// error cap is reached.
func (v *verifier) checkMarkBits(s *Space) bool {
	for i, w := range s.marks {
		for w != 0 {
			off := i<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			pending := s.Blocks != nil && off < s.Cap() && s.Blocks.UnsweptAt(off/s.Blocks.Span)
			if !v.spec.MarkingActive && !pending {
				return v.errorf(ErrStaleMark, "%v: mark bit at %d in a swept block", s, off)
			}
			if off >= s.Top || !v.isStart(s, off) || HeaderType(s.Mem[off]) == TFree {
				return v.errorf(ErrStaleMark, "%v: mark bit at %d is not on the header of a non-free object", s, off)
			}
		}
	}
	return true
}

// checkPtr validates one pointer: it must target a live space, land on an
// object start, and that object must not be free. what produces the slot
// description lazily, so clean slots (the overwhelming majority) pay nothing
// for diagnostics.
func (v *verifier) checkPtr(w Word, what func() string) bool {
	id := PtrSpace(w)
	if int(id) >= len(v.h.Spaces) {
		return v.errorf(ErrDanglingPointer, "%s points to unknown space %d", what(), id)
	}
	if !v.live[id] {
		return v.errorf(ErrDanglingPointer, "%s points into scratch space %v", what(), v.h.Spaces[id])
	}
	s := v.h.Spaces[id]
	off := PtrOff(w)
	if off >= s.Top {
		return v.errorf(ErrDanglingPointer, "%s points past the bump pointer of %v (off %d)", what(), s, off)
	}
	if s.Mem == nil {
		return v.errorf(ErrDanglingPointer, "%s points into a free run of reserved %v (off %d)", what(), s, off)
	}
	if !v.isStart(s, off) {
		return v.errorf(ErrDanglingPointer, "%s points into the middle of an object (%v off %d)", what(), s, off)
	}
	if HeaderType(s.Mem[off]) == TFree {
		return v.errorf(ErrDanglingPointer, "%s points into a free block (%v off %d)", what(), s, off)
	}
	if v.deadPending(s, off) {
		return v.errorf(ErrDanglingPointer, "%s points to a dead object awaiting lazy sweep (%v off %d)", what(), s, off)
	}
	return true
}

// deadPending reports whether the object headed at off is dead storage in a
// block awaiting its lazy sweep: the mark is authoritative there, so
// unmarked means dead.
func (v *verifier) deadPending(s *Space, off int) bool {
	bt := s.Blocks
	return bt != nil && bt.UnsweptAt(off/bt.Span) && !s.MarkedAt(off)
}

// sweepPending reports whether any block of s awaits its lazy sweep.
func (s *Space) sweepPending() bool {
	if s.Blocks != nil {
		for _, w := range s.Blocks.Unswept {
			if w != 0 {
				return true
			}
		}
	}
	return false
}

// scanObjects walks every live space's objects in address order and checks
// each non-free one: its census word is an in-range fixnum, every pointer
// slot passes checkPtr, and for each declared remembered-set rule the first
// slot that demands an entry finds the object in the set. Free blocks are
// skipped entirely — their payloads are dead storage (the free-list link
// plus whatever the dead object left behind).
func (v *verifier) scanObjects() {
	extra := v.h.ExtraWords()
	now := v.h.Now()
	for _, s := range v.h.Spaces {
		if !v.live[s.ID] || s.Mem == nil {
			continue
		}
		for off := 0; off < s.Top; off += ObjWords(s.Mem[off]) {
			hdr := s.Mem[off]
			t := HeaderType(hdr)
			if t == TFree || v.deadPending(s, off) {
				continue
			}
			if extra == 1 {
				stamp := s.Mem[off+1]
				if !IsFixnum(stamp) {
					if !v.errorf(ErrBadCensusWord, "%v off %d: birth stamp is not a fixnum (%#x)", s, off, uint64(stamp)) {
						return
					}
				} else if bs := FixnumVal(stamp); bs < 0 || uint64(bs) > now {
					if !v.errorf(ErrBadCensusWord, "%v off %d: birth stamp %d outside [0, %d]", s, off, bs, now) {
						return
					}
				}
			}
			if RawPayload(t) {
				continue
			}
			first, last := off+1+extra, off+HeaderSize(hdr)
			for i := first; i <= last; i++ {
				w := s.Mem[i]
				if IsPtr(w) && !v.checkPtr(w, func() string {
					return fmt.Sprintf("slot %d of %v object at %v off %d", i-off-1, t, s, off)
				}) {
					return
				}
			}
			obj := PtrWord(s.ID, off)
			for _, rule := range v.spec.Remsets {
				for i := first; i <= last; i++ {
					w := s.Mem[i]
					if !IsPtr(w) || !rule.Needs(obj, w) {
						continue
					}
					if !rule.Has(obj) && !v.errorf(ErrRemsetMissing, "rule %q: object at %v off %d points to space %d off %d but is not remembered",
						rule.Name, s, off, PtrSpace(w), PtrOff(w)) {
						return
					}
					break // one demanding slot settles this object for this rule
				}
			}
		}
	}
}

// scanRoots validates every root slot: the handle stack and globals.
func (v *verifier) scanRoots() {
	i := 0
	v.h.VisitRoots(func(slot *Word) {
		if IsPtr(*slot) && len(v.errs) < maxVerifyErrors {
			n := i
			v.checkPtr(*slot, func() string { return fmt.Sprintf("root slot %d", n) })
		}
		i++
	})
}

// checkBlockTables enforces invariant 6 over every live blocked space,
// reporting the first faulty block of each.
func (v *verifier) checkBlockTables() {
	for _, s := range v.h.Spaces {
		if !v.live[s.ID] {
			continue
		}
		if fault := s.blockTableFault(); fault != "" && !v.errorf(ErrBadBlockTable, "%v %s", s, fault) {
			return
		}
	}
}

// blockTableFault names the first block of s whose free list is unsound and
// what is wrong with it, or returns "" for a sound (or unblocked) space.
func (s *Space) blockTableFault() string {
	if s.Blocks == nil {
		return ""
	}
	for b := range s.Blocks.FreeHead {
		if fault := s.blockFault(b); fault != "" {
			return fmt.Sprintf("block %d: %s", b, fault)
		}
	}
	return ""
}

// blockFault describes what is wrong with block b's free list, or returns ""
// for a sound block. Placement leans on these properties: the allocator
// follows the links without bounds checks, and skips a block for good once a
// request exceeds MaxRun[b]. A block awaiting its lazy sweep has a stale list
// by design and is not inspected. The space must parse (parseSpaces found no
// fault), so the walk below can step from header to header.
func (s *Space) blockFault(b int) string {
	bt := s.Blocks
	if bt.UnsweptAt(b) {
		return ""
	}
	lo := b * bt.Span
	hi := min(lo+bt.Span, s.Top)
	if s.Mem == nil {
		if run := max(hi-lo, 0); bt.FreeHead[b] != NoFreeBlock || int(bt.MaxRun[b]) != run {
			return fmt.Sprintf("a reservation's table is not its %d-word run (head %d, MaxRun %d)", run, bt.FreeHead[b], bt.MaxRun[b])
		}
		return ""
	}
	// The list is address-ordered, so one walk over the block's objects meets
	// its entries in order: next is the entry the walk has yet to reach.
	next := int(bt.FreeHead[b])
	if next != NoFreeBlock && (next < lo || next >= hi) {
		return fmt.Sprintf("free list leaves the block (head %d outside [%d, %d))", next, lo, hi)
	}
	off := lo
	for off < hi {
		hdr := s.Mem[off]
		n := ObjWords(hdr)
		switch {
		case next != NoFreeBlock && next < off:
			return fmt.Sprintf("free list links word %d, which is not a block start", next)
		case off == next:
			if HeaderType(hdr) != TFree {
				return fmt.Sprintf("free list links a non-free %v object at %d", HeaderType(hdr), off)
			}
			if n > int(bt.MaxRun[b]) {
				return fmt.Sprintf("free run of %d words at %d exceeds MaxRun %d", n, off, bt.MaxRun[b])
			}
			next = FreeNext(s, off)
			if next != NoFreeBlock && next <= off {
				return fmt.Sprintf("free list not address-ordered (%d links back to %d)", off, next)
			}
			if next >= hi {
				return fmt.Sprintf("free list leaves the block (%d links to %d, block ends at %d)", off, next, hi)
			}
		case HeaderType(hdr) == TFree && n >= 2:
			return fmt.Sprintf("free run of %d words at %d is not on the free list", n, off)
		}
		off += n
	}
	if off != hi {
		return fmt.Sprintf("object ending at %d straddles the block boundary %d", off, hi)
	}
	if next != NoFreeBlock {
		return fmt.Sprintf("free list links word %d, which is not a block start", next)
	}
	return ""
}
