package heap

import "math"

// The shared slice-scheduling engine of the incremental mark/sweep
// collectors, which run it when Config.Incremental is set.

// incrMarkRatio is how many words of marking each slice retires per word
// the mutator allocated since the previous slice: with budget B, a slice of
// B words runs every B/incrMarkRatio allocated words. Marking therefore
// outpaces allocation 4:1, so a cycle started with half the heap free
// always terminates before allocation exhausts the free half — the same
// safety argument as Baker's incremental collector, in words instead of
// time.
const incrMarkRatio = 4

// IncrMarker schedules a Marker's work into bounded slices. The embedding
// collector owns the phase machine (when a cycle starts, what termination
// and sweeping look like); IncrMarker owns what is common to every
// incremental collector: the allocation-debt pacing, the slice drains, the
// barrier shading, and the per-cycle work accounting.
//
// All marking — slices and the termination drain alike — runs through
// Marker.DrainBudget, so a slice's recorded pause equals the work the
// mutator waited for.
type IncrMarker struct {
	H *Heap
	M *Marker

	// Active is true from StartRoots until FinishDrain or Cancel: the
	// window in which the insertion barrier must shade.
	Active bool

	// Budget is the words-per-slice mark budget, read from the heap's
	// Config at StartRoots.
	Budget int

	// debt is the mutator allocation (in words) not yet paid for with
	// marking. NeedSlice compares debt against Budget/incrMarkRatio.
	debt int

	// Slices and SliceWords account the cycle's incremental work: how many
	// bounded drains ran and the words they scanned. FinishDrain's return
	// value completes the cycle total.
	Slices     int
	SliceWords uint64

	// countSlot counts and marks root slots; built once so root scans do
	// not allocate per cycle.
	countSlot func(slot *Word)
	rootSlots uint64
}

// NewIncrMarker prepares a slice scheduler over m.
func NewIncrMarker(h *Heap, m *Marker) *IncrMarker {
	im := &IncrMarker{H: h, M: m}
	mark := m.Slot()
	im.countSlot = func(slot *Word) {
		im.rootSlots++
		mark(slot)
	}
	return im
}

// StartRoots begins an incremental cycle: the marker must already be armed
// (Begin + region). It scans the roots, graying everything they reference,
// and returns the pause words of the root scan (one word of work per root
// slot visited). From here until FinishDrain or Cancel the collector's
// barrier must Shade every pointer stored into the heap.
func (im *IncrMarker) StartRoots() uint64 {
	im.Active = true
	im.Budget = im.H.cfg.SliceBudget
	im.debt = 0
	im.Slices = 0
	im.SliceWords = 0
	im.rootSlots = 0
	im.H.VisitRoots(im.countSlot)
	return im.rootSlots
}

// Shade grays the stored value under the Dijkstra insertion invariant: any
// pointer written into the heap while marking is active is marked before
// the mutator proceeds, so a black object can never point to an
// unreachable-looking white one. Values that are not pointers, lie outside
// the cycle's region, or are already marked cost one predicate each.
func (im *IncrMarker) Shade(v Word, g *GCStats) {
	if !im.Active {
		return
	}
	before := im.M.ObjectsMarked
	im.M.MarkWord(v)
	g.BarrierShades += uint64(im.M.ObjectsMarked - before)
}

// NeedSlice accrues allocWords of allocation debt and reports whether the
// debt now warrants a slice: marking pays incrMarkRatio words per allocated
// word, so the threshold is Budget/incrMarkRatio allocated words.
func (im *IncrMarker) NeedSlice(allocWords int) bool {
	if !im.Active {
		return false
	}
	im.debt += allocWords
	return im.debt*incrMarkRatio >= im.Budget
}

// RunSlice drains up to the slice budget and returns the words scanned
// (the slice's pause size; the caller records it). The allocation debt
// resets whether or not the stack emptied.
func (im *IncrMarker) RunSlice() uint64 {
	im.debt = 0
	scanned := uint64(im.M.DrainBudget(im.Budget))
	im.Slices++
	im.SliceWords += scanned
	return scanned
}

// Done reports whether the gray stack has emptied — the cue for the
// collector to run its termination phase. New grays can still appear after
// a true result (barrier shades, allocation in shared spaces), so
// termination must drain again under FinishDrain.
func (im *IncrMarker) Done() bool { return im.Active && im.M.StackEmpty() }

// FinishDrain is the termination phase's marking: the roots are re-scanned
// (root slots are not barriered — Refs mutate freely during the cycle) and
// the stack drained to empty with no budget. The mutator is stopped for
// the duration; the returned word count (root slots plus words scanned) is
// the marking share of the termination pause. Marking is inactive after.
func (im *IncrMarker) FinishDrain() uint64 {
	im.rootSlots = 0
	im.H.VisitRoots(im.countSlot)
	scanned := uint64(im.M.DrainBudget(math.MaxInt))
	im.Active = false
	return im.rootSlots + scanned
}

// Cancel abandons the cycle without completing it: marking deactivates and
// the gray stack empties. The caller must clear any mark bits already set
// (ClearMarks over the cycle's region) before the next trace, or stale
// marks would silently truncate it.
func (im *IncrMarker) Cancel() {
	im.Active = false
	im.M.stack = im.M.stack[:0]
}
