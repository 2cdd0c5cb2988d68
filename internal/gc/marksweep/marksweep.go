// Package marksweep implements the non-generational mark/sweep collector
// against which the paper states its headline comparison: its mark/cons
// ratio under the radioactive decay model is 1/(L-1) (Section 5).
//
// Each managed space is block-structured (heap.NewBlockedSpace): no object
// straddles a heap.BlockWords boundary, and each block carries its own
// address-ordered first-fit free list. Marking records liveness in the
// spaces' side bitmaps, and the sweep (heap.Sweeper) rebuilds the per-block
// free lists with coalescing and clears the bitmaps per block.
//
// Objects whose footprint exceeds heap.LargeObjectWords cannot share a
// block fairly and go to a segregated large-object space instead: one space
// per object, never copied, reclaimed whole when the object dies.
//
// Because objects never move, the blocked heap grows by adding spaces.
package marksweep

import (
	"fmt"

	"rdgc/internal/heap"
)

// Collector is a mark/sweep collector over one or more blocked spaces plus a
// large-object space.
type Collector struct {
	h      *heap.Heap
	spaces []*heap.Space
	// hint[i][n] is the first block of spaces[i] that can still hold an
	// n-word request (n <= heap.LargeObjectWords): every block before it has
	// an empty free list or MaxRun < n. Free runs only shrink between sweeps
	// — the invariant MaxRun rests on too — so a block rejected for n stays
	// rejected until a sweep refills it, and the scan for n resumes where the
	// last one stopped: a mutator phase costs O(blocks + allocations) per
	// size instead of O(blocks) per allocation. The rejected blocks are the
	// ones a plain first-fit scan would pass over without side effects, so
	// placement is identical to it. resetHints clears the cursors wherever
	// lists are refilled wholesale (Collect, finishMark); the lazy sweep
	// refills only blocks no cursor has passed, because tryAlloc sweeps a
	// pending block before judging it.
	hint [][]int32
	// visited counts the blocks tryAlloc has examined; only the cost test
	// reads it.
	visited uint64
	los     *heap.LargeObjectSpace

	stats heap.GCStats

	// marker and sweeper are the persistent tracing and sweeping engines,
	// re-armed per collection so steady-state collections allocate nothing.
	marker  *heap.Marker
	sweeper *heap.Sweeper

	// liveBuf is reusable scratch for region and verify lists that append
	// the live large-object spaces to the blocked ones.
	liveBuf []*heap.Space

	expand float64

	// Incremental-mode state (incremental.go); incr is nil in
	// stop-the-world mode and every incremental hook is compiled out of the
	// hot paths behind that one check.
	incr      *heap.IncrMarker
	phase     int
	nextCycle uint64
	sweepDebt int
	lastLive  uint64
}

// Option configures the collector.
type Option func(*Collector)

// WithExpansion permits heap growth: when a collection cannot satisfy an
// allocation, or leaves the inverse load factor below invLoad, a new space
// is added sized to restore it.
func WithExpansion(invLoad float64) Option {
	if invLoad <= 1 {
		panic("marksweep: inverse load factor must exceed 1")
	}
	return func(c *Collector) { c.expand = invLoad }
}

// New creates a mark/sweep collector with an initial blocked space of the
// given size and installs it as h's allocator.
func New(h *heap.Heap, words int, opts ...Option) *Collector {
	c := &Collector{
		h:       h,
		marker:  heap.NewMarker(h, nil),
		sweeper: heap.NewSweeper(h),
		los:     heap.NewLargeObjectSpace(h, "markswept"),
	}
	for _, o := range opts {
		o(c)
	}
	c.addSpace(words)
	h.SetAllocator(c)
	if h.Config().Incremental {
		c.incrInit()
	}
	return c
}

func (c *Collector) addSpace(words int) {
	s := c.h.NewBlockedSpace(fmt.Sprintf("markswept-%d", len(c.spaces)), words)
	c.spaces = append(c.spaces, s)
	c.hint = append(c.hint, make([]int32, heap.LargeObjectWords+1))
}

// resetHints rewinds every cursor to block 0: the free lists were (or are
// about to be) rebuilt, so no block's rejection stands.
func (c *Collector) resetHints() {
	for _, cur := range c.hint {
		clear(cur)
	}
}

// Name implements heap.Collector.
func (c *Collector) Name() string { return "mark/sweep" }

// GCStats implements heap.Collector.
func (c *Collector) GCStats() *heap.GCStats { return &c.stats }

// Live returns the words occupied by non-free blocks, including live large
// objects.
func (c *Collector) Live() int {
	n := 0
	for _, s := range c.spaces {
		n += heap.LiveWords(s)
	}
	return n + c.los.LiveWords()
}

// VerifySpec implements heap.Verifiable: every blocked space and every live
// large-object space is live (the collector never moves objects). Pooled
// large-object spaces are scratch and deliberately absent. There is no
// remembered set. In incremental mode the spec also declares a mark in
// progress, when mid-mark bits are legitimate; the lazy sweep needs no
// declaring, the verifier reads the block tables' pending bits itself.
func (c *Collector) VerifySpec() heap.VerifySpec {
	c.liveBuf = c.los.AppendLive(append(c.liveBuf[:0], c.spaces...))
	return heap.VerifySpec{Live: c.liveBuf, MarkingActive: c.phase == msMarking}
}

// HeapWords returns the total capacity of the blocked spaces. Large-object
// spaces size themselves per object and are excluded: growth policy targets
// the blocked heap only.
func (c *Collector) HeapWords() int {
	n := 0
	for _, s := range c.spaces {
		n += s.Cap()
	}
	return n
}

// AllocRaw implements heap.Allocator. In incremental mode collector work is
// paced off the allocation clock (incrTick) rather than deferred to
// allocation failure, and the first-fit scan sweeps blocks on demand;
// allocation failure still falls back to a stop-the-world collection (and
// growth), so out of memory means the same thing in both modes.
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word {
	total := 1 + payload + c.h.ExtraWords()
	if c.incr != nil {
		c.incrTick(total)
	}
	if total > heap.LargeObjectWords {
		return c.allocLarge(t, payload, total)
	}
	s, off, ok := c.tryAlloc(total)
	if !ok && c.phase == msMarking {
		// Allocation pressure beat the mark pacing: terminate the cycle now
		// — the termination pause is only the remaining gray work, where the
		// stop-the-world fallback below would re-mark everything — then
		// retry with every block lazily sweepable.
		c.finishMark()
		s, off, ok = c.tryAlloc(total)
	}
	if !ok {
		c.Collect()
		s, off, ok = c.tryAlloc(total)
		if !ok && c.expand > 0 {
			c.grow(total)
			s, off, ok = c.tryAlloc(total)
		}
		if !ok {
			panic(fmt.Sprintf("marksweep: out of memory: need %d words", total))
		}
	}
	return c.h.InitObject(s, off, t, payload)
}

// allocLarge places an object in the large-object space: reuse a pooled
// space if one fits, otherwise collect (which may repopulate the pool), and
// only then mint a fresh space. In incremental mode a pool miss does not
// force a collection — that would be exactly the unbounded pause the mode
// exists to avoid — it just mints the space; and while a mark is in progress
// the object's space is added to the cycle's region, so the termination root
// re-scan can mark it and the large-object sweep will not free it if it is
// live.
func (c *Collector) allocLarge(t heap.Type, payload, total int) heap.Word {
	s, ok := c.los.FromPool(total)
	if !ok {
		if c.incr == nil {
			c.Collect()
		}
		s = c.los.Alloc(total)
	}
	if c.phase == msMarking {
		c.marker.Region().Add(s.ID)
	}
	return c.h.InitObject(s, 0, t, payload)
}

// grow adds a space large enough to restore the target inverse load factor
// (and in any case to satisfy the pending request).
func (c *Collector) grow(need int) {
	live := c.Live()
	want := int(float64(live)*c.expand) - c.HeapWords()
	if want < need+1 {
		want = need + 1
	}
	if min := c.HeapWords(); want < min {
		want = min // at least double the blocked heap to amortize growth
	}
	c.addSpace(want)
}

// tryAlloc finds the first free block of at least n words across all blocked
// spaces, scanning each space's blocks first-fit from its cursor for n and
// leaving the cursor on the block that served the request (or past the last
// block when none can). In incremental mode a block's free list and MaxRun
// can only be trusted after its lazy sweep, so a pending block is swept — its
// own recorded pause — the moment the scan reaches it, before the cursor can
// pass it.
func (c *Collector) tryAlloc(n int) (*heap.Space, int, bool) {
	for i, s := range c.spaces {
		fh := s.Blocks.FreeHead
		cur := c.hint[i]
		b := int(cur[n])
		for ; b < len(fh); b++ {
			c.visited++
			if c.incr != nil && s.Blocks.UnsweptAt(b) {
				c.ensureSwept(s, b)
			}
			if fh[b] == heap.NoFreeBlock {
				continue
			}
			if off, ok := s.AllocFromBlock(b, n); ok {
				cur[n] = int32(b)
				return s, off, true
			}
		}
		cur[n] = int32(b)
	}
	return nil, 0, false
}

// Collect implements heap.Collector: mark from roots into the side bitmaps,
// then sweep every blocked space block by block and probe each large
// object's mark bit. The recorded
// pause is the full collection's work — words marked plus words swept —
// since the mutator waits for all of it. In incremental mode an explicit
// collection is still this stop-the-world routine, entered through stwReset
// so any in-progress cycle is resolved first.
func (c *Collector) Collect() {
	var pause uint64
	if c.incr != nil {
		pause = c.stwReset()
	}
	m := c.marker
	c.liveBuf = c.los.AppendLive(append(c.liveBuf[:0], c.spaces...))
	m.SetRegion(c.liveBuf...)
	m.Begin()
	m.Run()
	c.stats.WordsMarked += m.WordsMarked
	swept := c.sweeper.Sweep(c.spaces...)
	swept += c.los.Sweep()
	c.stats.WordsSwept += swept
	c.resetHints()
	if c.incr != nil {
		c.lastLive = m.WordsMarked
		c.scheduleNext()
	}
	c.h.EndCollection(&c.stats, true, pause+m.WordsMarked+swept, int(m.WordsMarked), 0)
}
