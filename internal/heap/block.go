package heap

import "math/bits"

// Block-structured heap layer. Every space is viewed as a sequence of
// fixed-size blocks of BlockWords words, with two pieces of side metadata
// allocated alongside the arena:
//
//   - a mark bitmap (one bit per word): collectors test and set marks here
//     instead of rewriting header words, so a mark-test is a bit probe
//     (headers are never written during a mark) and unmarking is a memclr;
//   - a per-block dirty summary (one bit per block), set when any word of
//     the block is marked, so ClearMarks touches only blocks that actually
//     received marks instead of rescanning every block, live or dead.
//
// Mark/sweep-managed spaces additionally opt into a block table
// (NewBlockedSpace): no object or free block ever straddles a block
// boundary (the final block may be partial), and each block carries its own
// address-ordered free list. Block independence is what the lazy sweep
// (sweep.go) exploits: any block may be swept on its own, in any order. A
// table's blocks need not be BlockWords long (BlockTable.Span): a step of
// the non-predictive mark/sweep collector is one block spanning the whole
// space.
//
// BlockWords is 512 (4 KiB of simulated heap at 8 bytes per word): big
// enough that per-block metadata (one free-list head, eight bitmap words)
// stays below 2% overhead and that decay-model objects (a few words each)
// never feel the no-straddling rule, small enough that a lazy sweep's
// on-demand step stays a short pause.
const (
	// BlockShift is log2 of the block size in words.
	BlockShift = 9
	// BlockWords is the block size in words.
	BlockWords = 1 << BlockShift
	// BlockMask masks a word offset down to its position within a block.
	BlockMask = BlockWords - 1

	// markWordsPerBlock is the span of one block in the mark bitmap: 64
	// word-marks per uint64 means blocks and bitmap words never interleave,
	// so a block's sweep clears its own bitmap span and no other.
	markWordsPerBlock = BlockWords / 64
)

// LargeObjectWords is the footprint (header plus payload, in words) above
// which a collector with a large-object space allocates the object there
// instead of inside its blocked spaces. Half a block keeps block-internal
// fragmentation bounded while leaving every smaller request satisfiable by
// any fully free block.
const LargeObjectWords = BlockWords / 2

// NoFreeBlock terminates a free list: it is the "next" value of the last
// free block and the head value of a block (or space) with no free storage.
const NoFreeBlock = -1

// BlockTable is the per-block metadata of a blocked (mark/sweep-managed)
// space: one free-list head per block. Free blocks chain through payload
// word 0 (a fixnum offset within the space; NoFreeBlock ends the chain);
// one-word free blocks cannot hold a link and stay unlinked until sweep
// coalesces them into a neighbour.
type BlockTable struct {
	// Span is the length of one table block in words, fixed at construction:
	// block b covers offsets [b*Span, (b+1)*Span). The mark bitmap's dirty
	// summary keeps its BlockWords granularity whatever the span.
	Span int
	// FreeHead[b] is the offset of block b's first free block, or
	// NoFreeBlock. Lists are address-ordered within the block.
	FreeHead []int32
	// MaxRun[b] is an upper bound on the largest free run in block b, in
	// words: exact after a sweep, and tightened by a failed allocation scan
	// (first-fit finding no run of n words proves every run is smaller, so
	// the bound drops to n-1). Runs only ever shrink between sweeps, so the
	// bound stays valid without being recomputed on allocation. It lets the
	// allocator skip hopeless blocks in O(1) while leaving first-fit
	// placement bit-identical: only blocks that cannot satisfy the request
	// are skipped.
	MaxRun []int32
	// Unswept is a bitset (one bit per block) of blocks whose free lists are
	// stale because a completed mark has not yet been swept into them. The
	// lazy sweep (sweep.go) sets every bit at termination and clears each
	// block's bit when it is swept — on demand from the allocation path, or
	// by the paced background scan. A set bit means FreeHead/MaxRun and the
	// block's mark bits must not be trusted until EnsureSwept runs.
	Unswept []uint64
}

// UnsweptAt reports whether block b awaits a lazy sweep.
func (bt *BlockTable) UnsweptAt(b int) bool {
	return bt.Unswept[b>>6]&(1<<(uint(b)&63)) != 0
}

// setUnswept flags block b as awaiting a lazy sweep.
func (bt *BlockTable) setUnswept(b int) {
	bt.Unswept[b>>6] |= 1 << (uint(b) & 63)
}

// clearUnswept drops block b's pending-sweep flag.
func (bt *BlockTable) clearUnswept(b int) {
	bt.Unswept[b>>6] &^= 1 << (uint(b) & 63)
}

// NumBlocks returns the number of blocks the space's capacity spans.
func (s *Space) NumBlocks() int { return (s.Cap() + BlockMask) >> BlockShift }

// BlocksReserved returns the blocks of address space the space pins down,
// rounding its capacity up to whole blocks, whether or not the space has its
// memory yet. Footprint reporting multiplies this by BlockWords.
func (s *Space) BlocksReserved() int { return s.NumBlocks() }

// FootprintWords returns the heap's total reserved footprint: blocks
// reserved across all spaces times the block size. Unlike occupancy (Used),
// this counts to-spaces, free-list slack, and pooled large-object spaces —
// the memory a real process would hold from the OS. A reservation's words
// count from its creation, before it has memory: the footprint is what the
// collector has claimed, not what the simulation has touched.
func (h *Heap) FootprintWords() int {
	n := 0
	for _, s := range h.Spaces {
		n += s.BlocksReserved()
	}
	return n * BlockWords
}

// NewBlockedSpace creates a space managed as blocks of BlockWords words:
// every block is formatted as one maximal free block on its own free list,
// and Top sits at capacity so the space is linearly parsable from the start
// (free blocks tile the storage). The capacity is taken exactly as requested
// — the final block may be partial; block boundaries, not block count, carry
// the no-straddling invariant — but at least one header must fit.
func (h *Heap) NewBlockedSpace(name string, words int) *Space {
	return h.NewBlockedSpaceSpan(name, words, BlockWords)
}

// NewBlockedSpaceSpan is NewBlockedSpace with table blocks of span words. A
// table of several blocks needs a span that is a multiple of BlockWords, so
// that no two blocks share a word of the mark bitmap; one block spanning the
// space (span >= words) may have any length.
func (h *Heap) NewBlockedSpaceSpan(name string, words, span int) *Space {
	s := h.ReserveBlockedSpaceSpan(name, words, span)
	s.allocate(words)
	s.FreeFrom(0)
	return s
}

// ReserveBlockedSpaceSpan is a reservation (ReserveSpace) that carries the
// block table of NewBlockedSpaceSpan, in the bump form Reset leaves: every
// free list empty, Top 0. Whoever first puts words into it backs it (Back):
// an evacuation fills it like any target, and FreeFrom then turns it into
// a free-list space; an allocation ladder backs it and formats it whole
// with FreeFrom(0), making it the space NewBlockedSpaceSpan makes.
func (h *Heap) ReserveBlockedSpaceSpan(name string, words, span int) *Space {
	if words <= 0 {
		panic("heap: ReserveBlockedSpaceSpan with non-positive size")
	}
	if span < words && (span < BlockWords || span%BlockWords != 0) {
		panic("heap: block span must be a multiple of BlockWords or cover the space")
	}
	s := h.ReserveSpace(name, words)
	n := (words + span - 1) / span
	s.Blocks = &BlockTable{
		Span:     span,
		FreeHead: make([]int32, n),
		MaxRun:   make([]int32, n),
		Unswept:  make([]uint64, (n+63)/64),
	}
	s.Reset()
	return s
}

// FreeFrom puts a blocked space into free-list form with the words below
// used allocated and the rest free: Top moves to capacity and every block's
// list becomes the one maximal run of its words at or above used (none for a
// block wholly below). It formats a new space (used = 0) and turns a
// bump-filled evacuation target back into a free-list space. The runs are
// written into the space's words, so a reservation must be backed first.
func (s *Space) FreeFrom(used int) {
	bt := s.Blocks
	s.Top = s.Cap()
	for b := range bt.FreeHead {
		lo := b * bt.Span
		hi := min(lo+bt.Span, s.Cap())
		bt.FreeHead[b], bt.MaxRun[b] = NoFreeBlock, 0
		if off := max(lo, used); off < hi {
			n := hi - off
			s.Mem[off] = HeaderWord(TFree, n-1)
			if n > 1 {
				SetFreeNext(s, off, NoFreeBlock)
				bt.FreeHead[b] = int32(off)
			}
			bt.MaxRun[b] = int32(n)
		}
	}
}

// FreeNext returns the list successor of the free block at off, or
// NoFreeBlock. One-word free blocks have no link and always terminate.
func FreeNext(s *Space, off int) int {
	if HeaderSize(s.Mem[off]) == 0 {
		return NoFreeBlock
	}
	return int(FixnumVal(s.Mem[off+1]))
}

// SetFreeNext links the free block at off to next. One-word free blocks
// cannot hold a link; the write is skipped.
func SetFreeNext(s *Space, off, next int) {
	if HeaderSize(s.Mem[off]) > 0 {
		s.Mem[off+1] = FixnumWord(int64(next))
	}
}

// AllocFromBlock carves n words first-fit out of block b's free list,
// splitting any remainder back onto the list in place (a one-word remainder
// cannot hold a link and stays unlinked-but-parsable until sweep coalesces
// it). It returns false when no free block in b fits.
//
// The list's head is tried in line: nearly every carve lands there, and
// since MaxRun bounds every run from above, a head that fits is the first
// fit whatever the bound says. The walk past the head, and the MaxRun
// tightening a miss earns, are allocFromList's.
func (s *Space) AllocFromBlock(b, n int) (int, bool) {
	fh := s.Blocks.FreeHead
	off := int(fh[b])
	if off == NoFreeBlock || ObjWords(s.Mem[off]) < n {
		return s.allocFromList(b, n)
	}
	// A listed free block has two or more words, so its link is there.
	fh[b] = int32(s.carve(off, n, int(FixnumVal(s.Mem[off+1]))))
	return off, true
}

// allocFromList is AllocFromBlock's first-fit walk of the whole list,
// bounded and tightened by MaxRun. A reservation's MaxRun is 0, so it
// refuses every request here, and the caller's ladder backs it.
func (s *Space) allocFromList(b, n int) (int, bool) {
	if int(s.Blocks.MaxRun[b]) < n {
		return 0, false
	}
	fh := s.Blocks.FreeHead
	prev := NoFreeBlock
	for off := int(fh[b]); off != NoFreeBlock; {
		next := FreeNext(s, off)
		if ObjWords(s.Mem[off]) >= n {
			replacement := s.carve(off, n, next)
			if prev == NoFreeBlock {
				fh[b] = int32(replacement)
			} else {
				SetFreeNext(s, prev, replacement)
			}
			return off, true
		}
		prev = off
		off = next
	}
	// The full scan found no run of n words, so every run is at most n-1.
	s.Blocks.MaxRun[b] = int32(n - 1)
	return 0, false
}

// carve takes the first n words of the free block at off, whose list
// successor is next, and returns the link that replaces off on the list:
// the remainder when it has room for a link, else next.
func (s *Space) carve(off, n, next int) int {
	rem := ObjWords(s.Mem[off]) - n
	if rem > 0 {
		s.Mem[off+n] = HeaderWord(TFree, rem-1)
	}
	if rem > 1 {
		s.Mem[off+n+1] = FixnumWord(int64(next))
		return off + n
	}
	return next
}

// MarkedAt reports whether the object headed at off is marked in the side
// bitmap.
func (s *Space) MarkedAt(off int) bool {
	return s.marks[off>>6]&(1<<(uint(off)&63)) != 0
}

// SetMarkAt sets the mark bit for the object headed at off and records its
// block in the dirty summary.
func (s *Space) SetMarkAt(off int) {
	s.marks[off>>6] |= 1 << (uint(off) & 63)
	b := off >> BlockShift
	s.dirty[b>>6] |= 1 << (uint(b) & 63)
}

// ClearMarkBits clears the space's mark bitmap in O(dirty blocks): the
// dirty summary names exactly the blocks that received marks, and each
// costs markWordsPerBlock stores. Blocks never marked cost nothing — this
// is the per-block fix for the old O(whole-space) unmark pass.
func (s *Space) ClearMarkBits() {
	for di, d := range s.dirty {
		if d == 0 {
			continue
		}
		for d != 0 {
			b := di<<6 + bits.TrailingZeros64(d)
			d &= d - 1
			lo := b * markWordsPerBlock
			hi := lo + markWordsPerBlock
			if hi > len(s.marks) {
				hi = len(s.marks)
			}
			mw := s.marks[lo:hi]
			for i := range mw {
				mw[i] = 0
			}
		}
		s.dirty[di] = 0
	}
}

// clearBlockMarks clears the bitmap span of a single table block (bitmap
// words never straddle table blocks) and drops its dirty bits.
func (s *Space) clearBlockMarks(b int) {
	lo := b * s.Blocks.Span
	hi := min(lo+s.Blocks.Span, len(s.Mem))
	clear(s.marks[lo>>6 : (hi+63)>>6])
	for d := lo >> BlockShift; d < (hi+BlockMask)>>BlockShift; d++ {
		s.dirty[d>>6] &^= 1 << (uint(d) & 63)
	}
}

// MarkedLiveWords returns the total footprint (header plus payload words)
// of the marked objects in the space, walking only dirty blocks' bitmap
// spans. Collectors that size or order spaces by survivors (the
// non-predictive mark/sweep's rename pass) use it to read live occupancy
// straight off the marks, before any sweep has rebuilt the free lists.
func (s *Space) MarkedLiveWords() int {
	live := 0
	for di, d := range s.dirty {
		if d == 0 {
			continue
		}
		for d != 0 {
			b := di<<6 + bits.TrailingZeros64(d)
			d &= d - 1
			lo := b * markWordsPerBlock
			hi := lo + markWordsPerBlock
			if hi > len(s.marks) {
				hi = len(s.marks)
			}
			for mi := lo; mi < hi; mi++ {
				w := s.marks[mi]
				for w != 0 {
					off := mi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					live += ObjWords(s.Mem[off])
				}
			}
		}
	}
	return live
}

// MarksClear reports whether no mark bit is set anywhere in the space. The
// verifier uses it as the bitmap analogue of the stale-header-mark check;
// it scans the whole bitmap rather than trusting the dirty summary, so a
// summary bug cannot mask a stale bit.
func (s *Space) MarksClear() bool {
	for _, w := range s.marks {
		if w != 0 {
			return false
		}
	}
	return true
}
