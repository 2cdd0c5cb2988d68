package heap

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Sweeper is the generic sweep engine for blocked (mark/sweep-managed)
// spaces: after a mark, it rebuilds every block's free list — coalescing
// runs of dead objects and old free blocks into maximal free blocks — and
// clears the block's mark bits, in one pass per block.
//
// Table blocks (BlockTable.Span words each) are the unit of parallelism. No
// object or free block straddles a block boundary, every block's free-list
// head is its own table slot, and a block's span of the mark bitmap is
// exclusively its own, so any worker can sweep any block with no
// synchronization beyond claiming it: workers claim blocks from a flattened
// (space, block) sequence via an atomic cursor.
// Because each block's result is a pure function of that block's contents
// and marks, the swept heap image, the free lists, and WordsSwept are
// bit-identical to the sequential sweep at every worker count — a stronger
// guarantee than the mark and copy engines need machinery for.
//
// A Sweeper is built once per collector and reused: the flattening buffers
// keep their capacity, so steady-state sequential sweeps allocate nothing.
type Sweeper struct {
	H *Heap

	spaces []*Space
	// prefix[i] is the number of blocks in spaces[:i]; the flattened block
	// sequence assigns units [prefix[i], prefix[i+1]) to spaces[i].
	prefix []int
	cursor atomic.Int64

	// WordsSwept counts the words examined by the last Sweep: every word of
	// every block, live or dead, matching the historical sweep accounting.
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

// Sweep sweeps the given blocked spaces with the heap's configured worker
// count (0 and 1 run on the caller; N >= 2 fan blocks out over N workers)
// and returns the words examined. It panics if a space has no block table.
func (sw *Sweeper) Sweep(spaces ...*Space) uint64 {
	sw.spaces = append(sw.spaces[:0], spaces...)
	sw.prefix = sw.prefix[:0]
	total := 0
	for _, s := range spaces {
		if s.Blocks == nil {
			panic("heap: Sweeper.Sweep on a space without a block table")
		}
		sw.prefix = append(sw.prefix, total)
		total += len(s.Blocks.FreeHead)
	}
	sw.prefix = append(sw.prefix, total)

	workers := sw.H.cfg.Workers
	if workers <= 1 {
		// Sequential configuration: the same per-block routine in flat
		// address order on the caller — no goroutines, no atomics
		// beyond the (uncontended) dirty-summary clears.
		var swept uint64
		for _, s := range sw.spaces {
			for b := range s.Blocks.FreeHead {
				swept += uint64(sweepBlock(s, b))
			}
		}
		sw.WordsSwept = swept
		return swept
	}

	return sw.sweepParallel(workers, total)
}

// sweepParallel is the workers >= 2 engine, split out so the goroutine
// closure does not force the sequential path's locals onto the Go heap (the
// steady-state sweep must not allocate).
func (sw *Sweeper) sweepParallel(workers, total int) uint64 {
	sw.cursor.Store(0)
	var sweptTotal atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		labels := sw.H.workerLabels(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				var swept uint64
				for {
					unit := int(sw.cursor.Add(1)) - 1
					if unit >= total {
						break
					}
					si := 0
					for sw.prefix[si+1] <= unit {
						si++
					}
					swept += uint64(sweepBlock(sw.spaces[si], unit-sw.prefix[si]))
				}
				sweptTotal.Add(swept)
			})
		}()
	}
	wg.Wait()
	sw.WordsSwept = sweptTotal.Load()
	return sw.WordsSwept
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

// sweepBlock sweeps block b of s: survivors stay put, runs of dead objects
// and old free blocks merge into maximal TFree blocks linked onto the
// block's free list in address order, and the block's mark bits are
// cleared. It returns the words examined (always the full block).
//
// The block is entirely this caller's: its words, its free-list head, and
// its mark-bitmap span are touched by no other worker during a parallel
// sweep. The only shared word is the dirty summary (64 blocks per bit-word),
// which clearBlockMarks clears atomically.
func sweepBlock(s *Space, b int) int {
	lo := b * s.Blocks.Span
	hi := min(lo+s.Blocks.Span, s.Top)
	head := NoFreeBlock
	tail := NoFreeBlock
	lastFree := NoFreeBlock
	maxRun := 0
	link := func(off int) {
		if HeaderSize(s.Mem[off]) == 0 {
			return // 1-word block: cannot hold a link, stays unlinked
		}
		SetFreeNext(s, off, NoFreeBlock)
		if head == NoFreeBlock {
			head = off
		} else {
			SetFreeNext(s, tail, off)
		}
		tail = off
	}
	for off := lo; off < hi; {
		hdr := s.Mem[off]
		n := ObjWords(hdr)
		if HeaderType(hdr) != TFree && s.MarkedAt(off) {
			lastFree = NoFreeBlock
			off += n
			continue
		}
		if lastFree != NoFreeBlock {
			grown := ObjWords(s.Mem[lastFree]) + n
			wasUnlinked := HeaderSize(s.Mem[lastFree]) == 0
			s.Mem[lastFree] = HeaderWord(TFree, grown-1)
			SetFreeNext(s, lastFree, NoFreeBlock)
			if wasUnlinked {
				link(lastFree) // growing past 1 word makes it linkable
			}
			if grown > maxRun {
				maxRun = grown
			}
		} else {
			s.Mem[off] = HeaderWord(TFree, n-1)
			link(off)
			lastFree = off
			if n > maxRun {
				maxRun = n
			}
		}
		off += n
	}
	s.Blocks.FreeHead[b] = int32(head)
	s.Blocks.MaxRun[b] = int32(maxRun)
	s.clearBlockMarks(b)
	return hi - lo
}
