package heap

import "math/bits"

// Sweeper is the generic sweep engine for blocked (mark/sweep-managed)
// spaces: after a mark, it rebuilds every block's free list — coalescing
// runs of dead objects and old free blocks into maximal free blocks — and
// clears the block's mark bits, in one pass per block.
//
// No object or free block straddles a table block's boundary, and every
// block's free-list head and span of the mark bitmap are its own, so a
// block's result is a pure function of that block's contents and marks:
// the eager sweep, the lazy sweep's on-demand and paced paths all run the
// one sweepBlock routine and leave bit-identical heap images.
//
// A Sweeper is built once per collector and reused; sweeps allocate
// nothing.
type Sweeper struct {
	H *Heap

	// WordsSwept counts the words the last Sweep covered: every word of
	// every block, live or dead, as the simulated cost model charges a sweep,
	// though the sweep itself reads only the bitmap and the survivors'
	// headers.
	WordsSwept uint64

	// Lazy-sweep state (incremental mode): after a mark completes,
	// BeginLazy flags every block of the cycle's spaces as unswept instead
	// of sweeping them, and the blocks are swept one at a time — on demand
	// when allocation needs a block's free list (EnsureSwept), or paced in
	// address order from the allocation clock (SweepPendingBlock). Each
	// block is swept exactly once per cycle by the same sweepBlock routine
	// the eager paths use, so the fully swept heap image is bit-identical
	// to a stop-the-world sweep.
	lazySpaces []*Space
	lazyPend   int
	lazyCursor int
}

// NewSweeper prepares a sweep engine for h.
func NewSweeper(h *Heap) *Sweeper { return &Sweeper{H: h} }

// Sweep sweeps every block of the given blocked spaces in address order and
// returns the words examined. It panics if a space has no block table.
func (sw *Sweeper) Sweep(spaces ...*Space) uint64 {
	var swept uint64
	for _, s := range spaces {
		if s.Blocks == nil {
			panic("heap: Sweeper.Sweep on a space without a block table")
		}
		for b := range s.Blocks.FreeHead {
			swept += uint64(sweepBlock(s, b))
		}
	}
	sw.WordsSwept = swept
	return swept
}

// BeginLazy arms a lazy sweep over the given blocked spaces: every block is
// flagged unswept and nothing else happens — the marked heap image stays in
// place, with free lists stale until each block's sweep. Any previously
// pending blocks (there are none in correct use; collectors flush with
// FinishLazy before a new mark) are superseded.
func (sw *Sweeper) BeginLazy(spaces ...*Space) {
	sw.lazySpaces = append(sw.lazySpaces[:0], spaces...)
	sw.lazyPend = 0
	sw.lazyCursor = 0
	for _, s := range spaces {
		if s.Blocks == nil {
			panic("heap: Sweeper.BeginLazy on a space without a block table")
		}
		n := len(s.Blocks.FreeHead)
		for b := 0; b < n; b++ {
			s.Blocks.setUnswept(b)
		}
		sw.lazyPend += n
	}
}

// EnsureSwept sweeps block b of s now if it is still pending and returns
// the words examined (0 when the block was already swept or no lazy sweep
// is active). Allocation calls this before trusting a block's free list.
func (sw *Sweeper) EnsureSwept(s *Space, b int) int {
	if s.Blocks == nil || !s.Blocks.UnsweptAt(b) {
		return 0
	}
	s.Blocks.clearUnswept(b)
	sw.lazyPend--
	return sweepBlock(s, b)
}

// SweepPendingBlock sweeps the next pending block in address order and
// returns the words examined, or ok == false when nothing is pending. The
// incremental collectors call this at a steady rate off the allocation
// clock so the sweep finishes well before the next cycle even if
// allocation never touches some blocks.
func (sw *Sweeper) SweepPendingBlock() (words int, ok bool) {
	if sw.lazyPend == 0 {
		return 0, false
	}
	flat := sw.lazyCursor
	for _, s := range sw.lazySpaces {
		n := len(s.Blocks.FreeHead)
		if flat >= n {
			flat -= n
			continue
		}
		for b := flat; b < n; b++ {
			sw.lazyCursor++
			if s.Blocks.UnsweptAt(b) {
				s.Blocks.clearUnswept(b)
				sw.lazyPend--
				return sweepBlock(s, b), true
			}
		}
		flat = 0
	}
	return 0, false
}

// FinishLazy sweeps every still-pending block and returns the words
// examined. Collectors call it before starting a new mark (every block must
// be swept exactly once per cycle) and when leaving incremental mode for a
// stop-the-world collection.
func (sw *Sweeper) FinishLazy() uint64 {
	if sw.lazyPend == 0 {
		return 0
	}
	var swept uint64
	for _, s := range sw.lazySpaces {
		if sw.lazyPend == 0 {
			break
		}
		for b := range s.Blocks.FreeHead {
			if s.Blocks.UnsweptAt(b) {
				s.Blocks.clearUnswept(b)
				sw.lazyPend--
				swept += uint64(sweepBlock(s, b))
			}
		}
	}
	return swept
}

// LazyPending returns the number of blocks still awaiting their lazy sweep.
func (sw *Sweeper) LazyPending() int { return sw.lazyPend }

// sweepBlock sweeps block b of s: survivors stay put, each gap between two
// of them — whatever mix of dead objects and old free blocks it held —
// becomes one TFree block, linked onto the block's free list in address
// order when it has room for a link, and the block's mark bits are cleared.
// It returns the words examined: always the full block, whatever the sweep
// actually reads. A reservation holds no object and no mark, and is left as
// it is, without memory; its block is counted up to its capacity, not up to
// its Top of 0, as the fresh step it stands for — one free run FreeFrom(0)
// formatted — would be.
//
// It reads the block's span of the mark bitmap, not its headers: every set
// bit heads a marked, non-free object (the verifier's stale-mark check holds
// marking to that), so the survivors are the set bits, a survivor's header
// is the only one loaded, and the storage between two survivors is never
// read. Its specification is sweepBlockReference in sweep_test.go, a walk
// over every header; the two leave identical words, lists, bounds and
// bitmaps.
func sweepBlock(s *Space, b int) int {
	lo := b * s.Blocks.Span
	if s.Mem == nil {
		return min(lo+s.Blocks.Span, s.Cap()) - lo
	}
	hi := min(lo+s.Blocks.Span, s.Top)
	mem := s.Mem
	head := int32(NoFreeBlock)
	tail := NoFreeBlock
	maxRun := 0
	// gap turns [off, end) into one free block.
	gap := func(off, end int) {
		n := end - off
		mem[off] = HeaderWord(TFree, n-1)
		maxRun = max(maxRun, n)
		if n == 1 {
			return // one word: cannot hold a link, stays unlinked
		}
		mem[off+1] = FixnumWord(NoFreeBlock)
		if tail == NoFreeBlock {
			head = int32(off)
		} else {
			mem[tail+1] = FixnumWord(int64(off))
		}
		tail = off
	}
	free := lo // the start of the gap the next survivor closes
	marks := s.marks[lo>>6 : (hi+63)>>6]
	for i, w := range marks {
		for w != 0 {
			off := (lo>>6+i)<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if off >= hi {
				break
			}
			if off > free {
				gap(free, off)
			}
			free = off + ObjWords(mem[off])
		}
	}
	if free < hi {
		gap(free, hi)
	}
	s.Blocks.FreeHead[b] = head
	s.Blocks.MaxRun[b] = int32(maxRun)
	s.clearBlockMarks(b)
	return hi - lo
}
