package npms

import "rdgc/internal/heap"

// Incremental mode (heap.Config.Incremental / -gcincr) for the non-predictive
// mark/sweep collector: the mark of steps j+1..k runs in bounded slices
// behind the insertion barrier, and the sweep is heap.Sweeper's lazy sweep —
// one step at a time, because a step is one block of its table: on demand
// when allocation descends into a pending step, or paced off the allocation
// clock.
//
// The cycle's root set is the heap roots plus the remembered set, both
// scanned when the cycle starts. The barrier keeps this complete while the
// mutator runs: any pointer into the collected region stored anywhere in
// the heap is shaded immediately (remembered-set completeness guarantees
// every young object already holding region pointers was scanned at cycle
// start, so only new stores need covering), and root slots — which are not
// barriered — are re-scanned by the termination phase.
//
// Renaming needs each collected step's surviving occupancy before any
// sweep has run; the rename key (Space.MarkedLiveWords) reads it off the
// marks in both modes, so the renaming, and therefore the step structure,
// is identical in both.
//
// Compaction stays stop-the-world: an explicit or fallback collection
// first resolves any in-progress cycle (stwReset), exactly like the plain
// mark/sweep collector.

// Collection phases of the incremental cycle.
const (
	npIdle     = iota // between cycles
	npMarking         // slices running; barrier shading; marks partial
	npSweeping        // mark complete; marks authoritative on pending steps
)

// incrInit arms incremental mode on a freshly built collector.
func (c *Collector) incrInit() {
	c.incr = heap.NewIncrMarker(c.h, c.marker)
	c.phase = npIdle
	c.incrMarkRemset = func(obj heap.Word) {
		c.stats.RemsetScanned++
		s := c.h.SpaceOf(obj)
		off := heap.PtrOff(obj)
		c.remsetScanWords += uint64(heap.ObjWords(s.Mem[off]))
		heap.ScanObject(s, off, c.marker.Slot())
	}
}

// idxTrigger is the allocation-cursor position that starts the next cycle:
// once allocation has descended past the fuller half of the steps, the
// emptier half remains as runway for the 4:1-paced mark to terminate.
func (c *Collector) idxTrigger() int {
	return (c.st.K() - c.st.J()) / 2
}

// incrTick advances the incremental cycle by one allocation of n words.
func (c *Collector) incrTick(n int) {
	switch c.phase {
	case npIdle:
		if c.st.AllocIdx() <= c.idxTrigger() {
			c.startCycle()
		}
	case npMarking:
		if c.incr.NeedSlice(n) {
			c.h.AddPause(&c.stats, c.incr.RunSlice())
			if c.incr.Done() {
				c.finishMark()
			}
		}
	case npSweeping:
		// Pace the deferred step sweeps off the allocation clock, and flush
		// them entirely if the next cycle's trigger arrives first: a cycle
		// may only start on a fully swept heap.
		c.sweepDebt += n
		if c.sweepDebt >= c.st.StepWords/2 {
			c.sweepDebt = 0
			c.lazySweepNext()
		}
		if c.st.AllocIdx() <= c.idxTrigger() {
			for c.sweeper.LazyPending() > 0 {
				c.lazySweepNext()
			}
		}
		if c.sweeper.LazyPending() == 0 {
			c.phase = npIdle
		}
	}
}

// sweptPause records one step's deferred sweep as its own pause.
func (c *Collector) sweptPause(words int) {
	c.stats.WordsSwept += uint64(words)
	c.h.AddPause(&c.stats, uint64(words))
}

// ensureSwept sweeps s now if its deferred sweep is still pending.
func (c *Collector) ensureSwept(s *heap.Space) {
	if words := c.sweeper.EnsureSwept(s, 0); words > 0 {
		c.sweptPause(words)
	}
}

// lazySweepNext sweeps the youngest (emptiest, last to be reached by the
// descending allocation cursor) still-pending step: finishMark hands the
// sweeper the collected steps youngest first, and that is its cursor order.
func (c *Collector) lazySweepNext() {
	if words, ok := c.sweeper.SweepPendingBlock(); ok {
		c.sweptPause(words)
	}
}

// startCycle begins an incremental mark of steps j+1..k: region armed,
// heap roots and the remembered set scanned gray. That scan is the cycle's
// first pause, sized by the root slots plus the footprint of the
// remembered objects scanned.
func (c *Collector) startCycle() {
	m := c.marker
	m.SetRegion(c.old()...)
	m.Begin()
	c.phase = npMarking
	roots := c.incr.StartRoots()
	c.remsetScanWords = 0
	c.rs.ForEach(c.incrMarkRemset)
	c.h.AddPause(&c.stats, roots+c.remsetScanWords)
}

// finishMark is the termination phase: re-scan the roots, drain the
// remaining grays, rename the collected steps by their marked occupancy,
// arm their lazy sweep, and rebuild the remembered set (whose remember
// callback is what keeps the pending steps' dead storage out of it).
func (c *Collector) finishMark() {
	m := c.marker
	pause := c.incr.FinishDrain()

	c.st.RenameOldBy((*heap.Space).MarkedLiveWords)
	c.sweeper.BeginLazy(c.renamed()...)

	c.stats.WordsMarked += m.WordsMarked
	c.phase = npSweeping
	c.sweepDebt = 0
	// The collected steps still hold their dead storage until the lazy
	// sweep reaches them; what is live in them is what the cycle marked.
	c.finishCollection(pause, m.WordsMarked)
}

// stwReset returns the collector to the between-cycles state a
// stop-the-world collection (mark/sweep or compacting) requires, returning
// the pause words the reset cost: a cycle caught marking is abandoned with
// its partial marks cleared; pending step sweeps are completed.
func (c *Collector) stwReset() uint64 {
	if c.incr == nil {
		return 0
	}
	switch c.phase {
	case npMarking:
		c.incr.Cancel()
		heap.ClearMarks(c.old()...)
	case npSweeping:
		flushed := c.sweeper.FinishLazy()
		c.stats.WordsSwept += flushed
		c.phase = npIdle
		return flushed
	}
	c.phase = npIdle
	return 0
}
