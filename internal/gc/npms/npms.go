// Package npms implements the alternative non-predictive collector that
// Section 8 of the paper says Larceny intends to add: a 2-generation
// non-predictive collector based on a mark/sweep algorithm with occasional
// compaction.
//
// The step structure and renaming discipline are those of Section 4, but a
// collection marks steps j+1..k in place and sweeps them onto per-step free
// lists instead of copying survivors. Because survivors stay put, the
// renaming orders the collected steps by ascending occupancy — the emptiest
// become the new youngest steps — and the paper's assumption that all
// unavailable storage in steps 1..j is live holds exactly (a swept step
// contains only live objects and free blocks). Every CompactEvery-th
// collection evacuates the collected region into shadow spaces instead,
// undoing fragmentation.
package npms

import (
	"fmt"
	"sort"

	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

const noBlock = heap.NoFreeBlock

// Collector is the mark/sweep non-predictive collector.
type Collector struct {
	h *heap.Heap

	stepWords int
	// steps in logical order (index 0 = step 1, youngest); free lists are
	// per physical space, indexed by SpaceID.
	steps    []*heap.Space
	shadows  []*heap.Space
	freeHead []int   // SpaceID -> first free block, or noBlock
	pos      []int32 // SpaceID -> logical position, or -1

	j        int
	g        float64 // generation fraction: j = floor(g*k)
	allocIdx int

	rs remset.Set

	// CompactEvery triggers a copying (compacting) collection every n-th
	// collection; 0 disables compaction.
	compactEvery int

	// marker and evac are the persistent tracing engines, re-armed with
	// SetRegion/SetFrom per collection; the remembered-set root visitors
	// and the target-list buffer are reused so steady-state collections
	// allocate nothing in the tracing loops.
	marker     *heap.Marker
	evac       *heap.Evacuator
	markRemset func(obj heap.Word)
	evacRemset func(obj heap.Word)
	targetsBuf []*heap.Space

	stats heap.GCStats

	// Incremental-mode state (incremental.go); incr is nil in
	// stop-the-world mode.
	incr            *heap.IncrMarker
	phase           int
	pend            []bool // SpaceID -> step sweep still pending
	pendCount       int
	sweepDebt       int
	remsetScanWords uint64
	incrMarkRemset  func(obj heap.Word)
	sweepPending    func(s *heap.Space, off int) bool
}

// Option configures the collector.
type Option func(*Collector)

// WithG sets the generation fraction (default 0.25).
func WithG(g float64) Option { return func(c *Collector) { c.g = g } }

// WithCompactEvery sets the compaction period (default every 8th
// collection; 0 disables).
func WithCompactEvery(n int) Option { return func(c *Collector) { c.compactEvery = n } }

// WithRemset substitutes the remembered-set representation.
func WithRemset(rs remset.Set) Option { return func(c *Collector) { c.rs = rs } }

// New creates the collector with k steps of stepWords words each and
// installs it as h's allocator and write barrier.
func New(h *heap.Heap, k, stepWords int, opts ...Option) *Collector {
	if k < 2 {
		panic("npms: need at least 2 steps")
	}
	c := &Collector{
		h:            h,
		stepWords:    stepWords,
		rs:           remset.NewHashSet(),
		g:            0.25,
		compactEvery: 8,
	}
	for _, o := range opts {
		o(c)
	}
	for i := 0; i < k; i++ {
		c.steps = append(c.steps, h.NewSpace(fmt.Sprintf("npms-step-%d", i), stepWords))
	}
	for i := 0; i < k; i++ {
		c.shadows = append(c.shadows, h.NewSpace(fmt.Sprintf("npms-shadow-%d", i), stepWords))
	}
	// Steps and shadows trade places at every compaction, so the free heads
	// (like pos) are sized over both.
	c.freeHead = make([]int, len(h.Spaces))
	for i := range c.freeHead {
		c.freeHead[i] = noBlock
	}
	for _, s := range c.steps {
		c.initFree(s)
	}
	c.rebuildPos()
	c.allocIdx = k - 1
	c.setJ()
	c.marker = heap.NewMarker(h, nil)
	c.markRemset = func(obj heap.Word) {
		c.stats.RemsetScanned++
		heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), c.marker.Slot())
	}
	c.evac = heap.NewEvacuator(h, nil)
	c.evacRemset = func(obj heap.Word) {
		c.stats.RemsetScanned++
		heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), c.evac.Slot())
	}
	h.SetAllocator(c)
	h.SetBarrier(c)
	if h.Config().Incremental {
		c.incrInit()
	}
	return c
}

// initFree makes the whole space one free block with Top at capacity, so
// the space stays linearly parsable under free-list allocation.
func (c *Collector) initFree(s *heap.Space) {
	s.Top = s.Cap()
	s.Mem[0] = heap.HeaderWord(heap.TFree, s.Cap()-1)
	heap.SetFreeNext(s, 0, noBlock)
	c.freeHead[s.ID] = 0
}

func (c *Collector) setJ() {
	j := int(c.g * float64(len(c.steps)))
	if j > len(c.steps)-1 {
		j = len(c.steps) - 1
	}
	c.j = j
}

// Name implements heap.Collector.
func (c *Collector) Name() string { return "non-predictive mark/sweep" }

// GCStats implements heap.Collector.
func (c *Collector) GCStats() *heap.GCStats { return &c.stats }

// J returns the current tuning parameter.
func (c *Collector) J() int { return c.j }

// K returns the step count.
func (c *Collector) K() int { return len(c.steps) }

// Live returns the words occupied by non-free blocks across all steps.
func (c *Collector) Live() int {
	n := 0
	for _, s := range c.steps {
		n += heap.LiveWords(s)
	}
	return n
}

// RemsetLen returns the current remembered-set size.
func (c *Collector) RemsetLen() int { return c.rs.Len() }

// VerifySpec implements heap.Verifiable: the k steps are live (shadows are
// scratch), and every object in steps 1..j pointing into steps j+1..k must
// be remembered. In incremental mode the spec also declares the phase:
// mid-mark bits are legitimate while marking, and marks on steps whose
// sweep is still pending are authoritative (unmarked there means dead).
func (c *Collector) VerifySpec() heap.VerifySpec {
	spec := heap.VerifySpec{
		Live: c.steps,
		Remsets: []heap.RemsetRule{{
			Name: "young->old",
			Needs: func(obj, val heap.Word) bool {
				po := c.posOf(obj)
				return po >= 0 && po < c.j && c.posOf(val) >= c.j
			},
			Has: c.rs.Contains,
		}},
	}
	switch c.phase {
	case npMarking:
		spec.MarkingActive = true
	case npSweeping:
		spec.SweepPending = c.sweepPending
	}
	return spec
}

func (c *Collector) rebuildPos() {
	if n := len(c.h.Spaces); n > len(c.pos) {
		c.pos = append(c.pos, make([]int32, n-len(c.pos))...)
	}
	for i := range c.pos {
		c.pos[i] = -1
	}
	for i, s := range c.steps {
		c.pos[s.ID] = int32(i)
	}
}

func (c *Collector) posOf(w heap.Word) int {
	id := heap.PtrSpace(w)
	if int(id) >= len(c.pos) {
		return -1
	}
	return int(c.pos[id])
}

// RecordWrite implements heap.Barrier: objects in steps 1..j that receive a
// pointer into steps j+1..k enter the remembered set, and while an
// incremental mark is active the stored value is shaded (Dijkstra
// insertion invariant over the collected region).
func (c *Collector) RecordWrite(obj, val heap.Word) {
	if !heap.IsPtr(val) {
		return
	}
	if c.incr != nil {
		c.incr.Shade(val, &c.stats)
	}
	po := c.posOf(obj)
	if po >= 0 && po < c.j && c.posOf(val) >= c.j {
		c.rs.Remember(obj)
	}
}

// tryAllocIn carves n words first-fit out of s's free list, with the block
// links and split rule of the plain mark/sweep collector's
// heap.Space.AllocFromBlock.
func (c *Collector) tryAllocIn(s *heap.Space, n int) (int, bool) {
	if c.incr != nil && c.pend[s.ID] {
		// The step's free list is stale until its deferred sweep runs.
		c.lazySweepStep(s)
	}
	prev := noBlock
	for off := c.freeHead[s.ID]; off != noBlock; {
		hdr := s.Mem[off]
		blockWords := heap.ObjWords(hdr)
		next := heap.FreeNext(s, off)
		if blockWords >= n {
			replacement := next
			if rem := blockWords - n; rem > 1 {
				remOff := off + n
				s.Mem[remOff] = heap.HeaderWord(heap.TFree, rem-1)
				heap.SetFreeNext(s, remOff, next)
				replacement = remOff
			} else if rem == 1 {
				s.Mem[off+n] = heap.HeaderWord(heap.TFree, 0)
			}
			if prev == noBlock {
				c.freeHead[s.ID] = replacement
			} else {
				heap.SetFreeNext(s, prev, replacement)
			}
			return off, true
		}
		prev = off
		off = next
	}
	return 0, false
}

// AllocRaw implements heap.Allocator: allocate in the highest-numbered step
// with a fitting free block; when none fits anywhere, collect.
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word {
	total := 1 + payload + c.h.ExtraWords()
	if total > c.stepWords {
		panic(fmt.Sprintf("npms: object of %d words exceeds the step size %d", total, c.stepWords))
	}
	if c.incr != nil {
		c.incrTick(total)
	}
	for attempt := 0; ; attempt++ {
		for c.allocIdx >= 0 {
			s := c.steps[c.allocIdx]
			if off, ok := c.tryAllocIn(s, total); ok {
				return c.h.InitObject(s, off, t, payload)
			}
			c.allocIdx--
		}
		if c.incr != nil && c.phase == npMarking {
			// Allocation pressure beat the mark pacing: terminate the cycle
			// now — the termination pause is only the remaining gray work,
			// where the stop-the-world fallback below would re-mark
			// everything — then retry with the collected steps sweepable.
			c.finishMark()
			continue
		}
		switch attempt {
		case 0:
			c.Collect()
		case 1:
			// Collection freed storage but fragmentation defeats this
			// request: compact immediately.
			c.compact()
		default:
			panic(fmt.Sprintf("npms: out of memory: no step can hold %d words", total))
		}
	}
}

// Collect implements heap.Collector: one non-predictive collection of
// steps j+1..k, by mark/sweep or (periodically) by compaction.
func (c *Collector) Collect() {
	if c.compactEvery > 0 && (c.stats.MajorCollections+1)%c.compactEvery == 0 {
		c.compact()
		return
	}
	c.markSweepCollect()
}

func (c *Collector) markSweepCollect() {
	reset := c.stwReset()
	j := c.j
	m := c.marker
	m.SetRegion(c.steps[j:]...)
	m.Begin()
	c.h.VisitRoots(m.Slot())
	c.rs.ForEach(c.markRemset)
	m.Drain()

	var swept uint64
	for _, s := range c.steps[j:] {
		swept += uint64(c.sweep(s))
	}

	c.rename(c.steps[j:], nil)

	c.stats.Collections++
	c.stats.MajorCollections++
	c.stats.WordsMarked += m.WordsMarked
	c.stats.WordsSwept += swept
	c.h.AddPause(&c.stats, reset+m.WordsMarked+swept)
	c.stats.NoteLive(c.Live())
	c.finishCollection()
	c.h.AfterGC()
}

// compact evacuates the live contents of steps j+1..k into shadow spaces
// (filled from the new oldest position downward, as in the copying
// collector), then renames.
func (c *Collector) compact() {
	reset := c.stwReset()
	j := c.j
	k := len(c.steps)
	nNew := k - j
	primary := c.shadows[:nNew]
	targets := c.targetsBuf[:0]
	for i := nNew - 1; i >= 0; i-- {
		t := primary[i]
		t.Reset() // bump-fill during evacuation
		targets = append(targets, t)
	}
	c.targetsBuf = targets

	e := c.evac
	e.SetFrom(c.steps[j:]...)
	e.Begin(targets...)
	c.h.VisitRoots(e.Slot())
	c.rs.ForEach(c.evacRemset)
	e.Drain()

	// The compacted targets switch to free-list form: one block from the
	// bump pointer to the end.
	for _, t := range primary {
		used := t.Top
		t.Top = t.Cap()
		if used < t.Cap() {
			if t.Cap()-used == 1 {
				t.Mem[used] = heap.HeaderWord(heap.TFree, 0)
				c.freeHead[t.ID] = noBlock
			} else {
				t.Mem[used] = heap.HeaderWord(heap.TFree, t.Cap()-used-1)
				heap.SetFreeNext(t, used, noBlock)
				c.freeHead[t.ID] = used
			}
		} else {
			c.freeHead[t.ID] = noBlock
		}
	}

	collected := append([]*heap.Space{}, c.steps[j:]...)
	newYoung := make([]*heap.Space, nNew)
	copy(newYoung, primary)
	c.steps = append(append([]*heap.Space{}, newYoung...), c.steps[:j]...)
	// The collected spaces become the new shadows, emptied.
	c.shadows = collected
	for _, s := range c.shadows {
		s.Reset()
		c.freeHead[s.ID] = noBlock
	}
	c.rebuildPos()

	c.stats.Collections++
	c.stats.MajorCollections++
	c.stats.WordsCopied += e.WordsCopied
	c.h.AddPause(&c.stats, reset+e.WordsCopied)
	c.stats.NoteLive(c.Live())
	c.finishCollection()
	c.h.AfterGC()
}

// rename reorders the collected steps by ascending occupancy (emptiest
// first) to become the new steps 1..k-j, followed by the old steps 1..j as
// the new oldest steps.
func (c *Collector) rename(collected, _ []*heap.Space) {
	byOccupancy := append([]*heap.Space{}, collected...)
	sort.SliceStable(byOccupancy, func(a, b int) bool {
		return heap.LiveWords(byOccupancy[a]) < heap.LiveWords(byOccupancy[b])
	})
	c.steps = append(byOccupancy, c.steps[:c.j]...)
	c.rebuildPos()
}

// finishCollection re-establishes the allocation cursor, the tuning
// parameter, and the remembered set (situation 4: surviving objects now in
// steps 1..j may point into steps j+1..k).
func (c *Collector) finishCollection() {
	c.allocIdx = len(c.steps) - 1
	c.setJ()
	c.rs.Clear()
	for p := 0; p < c.j; p++ {
		s := c.steps[p]
		heap.WalkSpace(s, func(off int, hdr heap.Word) bool {
			if heap.HeaderType(hdr) == heap.TFree {
				return true
			}
			if c.incr != nil && c.pend[s.ID] && !s.MarkedAt(off) {
				// Dead storage in a step whose sweep is still pending:
				// remembering it would leave the next cycle scanning words
				// the lazy sweep is about to free (and reallocation to
				// repurpose).
				return true
			}
			found := false
			heap.ScanObject(s, off, func(slot *heap.Word) {
				if !found && heap.IsPtr(*slot) && c.posOf(*slot) >= c.j {
					found = true
				}
			})
			if found {
				c.rs.Remember(heap.PtrWord(s.ID, off))
			}
			return true
		})
	}
	if p := c.rs.Peak(); p > c.stats.RemsetPeak {
		c.stats.RemsetPeak = p
	}
}

// sweep rebuilds one step's free list with coalescing, clearing marks.
// It returns the words examined.
func (c *Collector) sweep(s *heap.Space) int {
	c.freeHead[s.ID] = noBlock
	tail := noBlock
	lastFree := noBlock
	swept := 0
	link := func(off int) {
		if heap.HeaderSize(s.Mem[off]) == 0 {
			return
		}
		heap.SetFreeNext(s, off, noBlock)
		if c.freeHead[s.ID] == noBlock {
			c.freeHead[s.ID] = off
		} else {
			heap.SetFreeNext(s, tail, off)
		}
		tail = off
	}
	heap.WalkSpace(s, func(off int, hdr heap.Word) bool {
		swept += heap.ObjWords(hdr)
		if heap.HeaderType(hdr) != heap.TFree && s.MarkedAt(off) {
			lastFree = noBlock
			return true
		}
		n := heap.ObjWords(hdr)
		if lastFree != noBlock {
			grown := heap.ObjWords(s.Mem[lastFree]) + n
			wasUnlinked := heap.HeaderSize(s.Mem[lastFree]) == 0
			s.Mem[lastFree] = heap.HeaderWord(heap.TFree, grown-1)
			heap.SetFreeNext(s, lastFree, noBlock)
			if wasUnlinked {
				link(lastFree)
			}
			return true
		}
		s.Mem[off] = heap.HeaderWord(heap.TFree, n-1)
		link(off)
		lastFree = off
		return true
	})
	heap.ClearMarks(s)
	return swept
}
