package marksweep

import "rdgc/internal/heap"

// Incremental mode (heap.Config.Incremental / -gcincr): the same mark/sweep
// algorithm with its two monolithic pauses split into bounded pieces.
//
// Marking runs in slices of at most the heap's slice budget, interleaved
// with allocation at heap.IncrMarker's 4:1 pacing, under a Dijkstra
// insertion barrier (the collector installs itself as the heap's Barrier
// and shades every pointer stored into the heap). Objects allocate white
// during the cycle; the termination phase re-scans the roots — root slots
// are not barriered — and drains the remaining gray objects, so anything
// the mutator still holds is marked before the sweep is armed.
//
// Sweeping is lazy and block-granular: termination flags every block
// unswept (heap.Sweeper.BeginLazy) and each block is swept exactly once —
// on demand when the first-fit scan reaches it, or by a paced background
// scan that retires one block per half-block of allocation so the sweep
// finishes well before the next cycle. The swept heap image is
// bit-identical to a stop-the-world sweep, so the surviving object set is
// exactly what a stop-the-world collection at the same termination point
// would keep.
//
// An explicit Collect (the drivers' full-collection operation) remains
// stop-the-world: any in-progress cycle is abandoned (marks cleared) or
// flushed (pending sweeps completed) first, so explicit collections are a
// synchronization point with identical semantics in both modes.

// Collection phases of the incremental cycle.
const (
	msIdle     = iota // between cycles: free lists valid, no marks
	msMarking         // slices running; barrier active; marks partial
	msSweeping        // mark complete; marks authoritative on unswept blocks
)

// incrInit arms incremental mode on a freshly built collector.
func (c *Collector) incrInit() {
	c.incr = heap.NewIncrMarker(c.h, c.marker)
	c.phase = msIdle
	c.nextCycle = c.h.Now() + uint64(c.HeapWords()/2)
	c.h.SetBarrier(c)
}

// RecordWrite implements heap.Barrier: the Dijkstra insertion barrier.
// While marking is active, any pointer stored into a heap object is shaded
// gray before the mutator proceeds, so a scanned (black) object can never
// hide a reference to an unmarked (white) one.
func (c *Collector) RecordWrite(_, val heap.Word) {
	c.incr.Shade(val, &c.stats)
}

// incrTick advances the collector by one allocation of n words: it starts a
// cycle when the trigger clock expires, runs a mark slice when the
// allocation debt warrants one, and retires pending sweep blocks at a
// steady background rate. Every piece of work it does is recorded as its
// own mutator-visible pause.
func (c *Collector) incrTick(n int) {
	switch c.phase {
	case msIdle:
		if c.h.Now() >= c.nextCycle {
			c.startCycle()
		}
	case msMarking:
		if c.incr.NeedSlice(n) {
			c.h.AddPause(&c.stats, c.incr.RunSlice())
			if c.incr.Done() {
				c.finishMark()
			}
		}
	case msSweeping:
		// One background block per half-block allocated: the whole heap is
		// swept within heapBlocks/2 blocks' worth of allocation even if the
		// allocator never walks the tail blocks.
		c.sweepDebt += n
		if c.sweepDebt >= heap.BlockWords/2 {
			c.sweepDebt = 0
			if words, ok := c.sweeper.SweepPendingBlock(); ok {
				c.stats.WordsSwept += uint64(words)
				c.h.AddPause(&c.stats, uint64(words))
			}
			if c.sweeper.LazyPending() == 0 {
				c.finishCycle()
			}
		}
	}
}

// startCycle begins an incremental mark: region armed over the blocked
// spaces and the live large objects, roots scanned gray. The root scan is
// the cycle's first pause.
func (c *Collector) startCycle() {
	m := c.marker
	c.liveBuf = c.los.AppendLive(append(c.liveBuf[:0], c.spaces...))
	m.SetRegion(c.liveBuf...)
	m.Begin()
	c.phase = msMarking
	c.h.AddPause(&c.stats, c.incr.StartRoots())
}

// finishMark is the termination phase, the one remaining stop-the-world
// step: re-scan the roots, drain the gray stack to empty, sweep the
// large-object space (block-granular laziness does not apply to one-object
// spaces), and arm the lazy sweep over every block. Its pause is the words
// of that work; with slices retiring most of the trace beforehand, it is
// bounded by the slice budget plus the root count in steady state.
func (c *Collector) finishMark() {
	m := c.marker
	pause := c.incr.FinishDrain()
	c.stats.WordsMarked += m.WordsMarked
	losSwept := c.los.Sweep()
	c.stats.WordsSwept += losSwept
	c.sweeper.BeginLazy(c.spaces...)
	c.resetHints()
	c.lastLive = m.WordsMarked
	c.phase = msSweeping
	c.sweepDebt = 0
	// The trigger is computed now, while free space genuinely equals
	// heap - live: by the time the lazy sweep finishes, allocation has
	// already re-consumed part of the freed storage, and scheduling from
	// that point would overshoot exhaustion.
	c.scheduleNext()
	c.h.EndCollection(&c.stats, true, pause+losSwept, int(m.WordsMarked), 0)
}

// finishCycle closes the sweep phase; the next trigger was already set at
// termination.
func (c *Collector) finishCycle() {
	c.phase = msIdle
}

// scheduleNext sets the next cycle trigger. Marking lastLive words at the
// 4:1 pacing consumes lastLive/4 words of allocation, so a cycle started
// with lastLive/2 free words remaining terminates with a 2x margin before
// allocation could exhaust the heap; the trigger therefore fires after
// free - lastLive/2 more words, which keeps the collection frequency — and
// so the mark/cons ratio — close to the stop-the-world collector's
// collect-on-exhaustion schedule. The one-block floor keeps a nearly full
// heap re-triggering promptly (a mis-estimate just falls back to a
// stop-the-world collection on allocation failure).
func (c *Collector) scheduleNext() {
	free := c.HeapWords() - int(c.lastLive)
	interval := free - int(c.lastLive)/2
	if interval < heap.BlockWords {
		interval = heap.BlockWords
	}
	c.nextCycle = c.h.Now() + uint64(interval)
}

// stwReset returns the collector to the between-cycles state an explicit
// stop-the-world collection requires, returning the pause words the reset
// itself cost: a cycle caught marking is abandoned (its partial marks
// cleared — they would truncate the full trace), and pending lazy sweeps
// are flushed (the stop-the-world sweep requires valid free lists and a
// one-sweep-per-mark discipline).
func (c *Collector) stwReset() uint64 {
	switch c.phase {
	case msMarking:
		c.incr.Cancel()
		c.liveBuf = c.los.AppendLive(append(c.liveBuf[:0], c.spaces...))
		heap.ClearMarks(c.liveBuf...)
	case msSweeping:
		flushed := c.sweeper.FinishLazy()
		c.stats.WordsSwept += flushed
		c.phase = msIdle
		return flushed
	}
	c.phase = msIdle
	return 0
}

// ensureSwept is the first-fit scan's on-demand sweep: if block b of s still
// awaits its lazy sweep it is swept now, as its own recorded pause, and the
// cycle closes when it was the last one pending.
func (c *Collector) ensureSwept(s *heap.Space, b int) {
	if words := c.sweeper.EnsureSwept(s, b); words > 0 {
		c.stats.WordsSwept += uint64(words)
		c.h.AddPause(&c.stats, uint64(words))
		if c.sweeper.LazyPending() == 0 && c.phase == msSweeping {
			c.finishCycle()
		}
	}
}
