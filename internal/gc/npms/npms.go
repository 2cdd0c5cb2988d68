// Package npms implements the alternative non-predictive collector that
// Section 8 of the paper says Larceny intends to add: a 2-generation
// non-predictive collector based on a mark/sweep algorithm with occasional
// compaction.
//
// The step structure and renaming discipline are those of Section 4, but a
// collection marks steps j+1..k in place and sweeps them onto per-step free
// lists instead of copying survivors. The free lists are the plain mark/sweep
// collector's: a step is a blocked space whose table is one block spanning
// the step (heap.NewBlockedSpaceSpan), carved by heap.Space.AllocFromBlock
// and rebuilt by heap.Sweeper. Because survivors stay put, the
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

// Collector is the mark/sweep non-predictive collector.
type Collector struct {
	h *heap.Heap

	stepWords int
	// steps in logical order (index 0 = step 1, youngest). Steps and shadows
	// trade places at every compaction, so both carry a one-block table; a
	// shadow's is empty (bump form) until evacuation has filled it.
	steps   []*heap.Space
	shadows []*heap.Space
	pos     []int32 // SpaceID -> logical position, or -1

	j        int
	g        float64 // generation fraction: j = floor(g*k)
	allocIdx int

	rs remset.Set

	// CompactEvery triggers a copying (compacting) collection every n-th
	// collection; 0 disables compaction.
	compactEvery int

	// marker, sweeper and evac are the persistent engines, re-armed with
	// SetRegion/SetFrom per collection; the remembered-set root visitors
	// and the target-list buffer are reused so steady-state collections
	// allocate nothing in the tracing loops.
	marker     *heap.Marker
	sweeper    *heap.Sweeper
	evac       *heap.Evacuator
	markRemset func(obj heap.Word)
	evacRemset func(obj heap.Word)
	targetsBuf []*heap.Space

	stats heap.GCStats

	// Incremental-mode state (incremental.go); incr is nil in
	// stop-the-world mode.
	incr            *heap.IncrMarker
	phase           int
	sweepDebt       int
	remsetScanWords uint64
	incrMarkRemset  func(obj heap.Word)
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
		c.steps = append(c.steps, h.NewBlockedSpaceSpan(fmt.Sprintf("npms-step-%d", i), stepWords, stepWords))
	}
	for i := 0; i < k; i++ {
		s := h.NewBlockedSpaceSpan(fmt.Sprintf("npms-shadow-%d", i), stepWords, stepWords)
		s.Reset()
		c.shadows = append(c.shadows, s)
	}
	c.rebuildPos()
	c.allocIdx = k - 1
	c.setJ()
	c.marker = heap.NewMarker(h, nil)
	c.sweeper = heap.NewSweeper(h)
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
// be remembered. In incremental mode the spec also declares a mark in
// progress, when mid-mark bits are legitimate; a step whose sweep is still
// pending says so in its block table, which the verifier reads itself.
func (c *Collector) VerifySpec() heap.VerifySpec {
	return heap.VerifySpec{
		Live: c.steps,
		Remsets: []heap.RemsetRule{{
			Name: "young->old",
			Needs: func(obj, val heap.Word) bool {
				po := c.posOf(obj)
				return po >= 0 && po < c.j && c.posOf(val) >= c.j
			},
			Has: c.rs.Contains,
		}},
		MarkingActive: c.phase == npMarking,
	}
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
			if c.incr != nil {
				// A step's free list is stale until its deferred sweep runs.
				c.ensureSwept(s)
			}
			if off, ok := s.AllocFromBlock(0, total); ok {
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

	// The rename reads occupancy off the marks, so it precedes the sweep,
	// which clears them.
	c.rename()
	swept := c.sweeper.Sweep(c.steps[:len(c.steps)-j]...)

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

	// The compacted targets switch to free-list form: one run from the
	// bump pointer to the end.
	for _, t := range primary {
		t.FreeFrom(t.Top)
	}

	collected := append([]*heap.Space{}, c.steps[j:]...)
	newYoung := make([]*heap.Space, nNew)
	copy(newYoung, primary)
	c.steps = append(append([]*heap.Space{}, newYoung...), c.steps[:j]...)
	// The collected spaces become the new shadows, emptied.
	c.shadows = collected
	for _, s := range c.shadows {
		s.Reset()
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

// rename reorders the collected steps j+1..k by ascending marked occupancy
// (emptiest first) to become the new steps 1..k-j, followed by the old steps
// 1..j as the new oldest steps. It runs between the mark and the sweep:
// Space.MarkedLiveWords is what LiveWords will read once the step is swept,
// and the incremental termination renames long before that. It returns the
// marked words of the collected steps.
func (c *Collector) rename() (marked int) {
	live := make([]int, len(c.pos)) // by SpaceID
	renamed := make([]*heap.Space, 0, len(c.steps))
	for _, s := range c.steps[c.j:] {
		live[s.ID] = s.MarkedLiveWords()
		marked += live[s.ID]
		renamed = append(renamed, s)
	}
	sort.SliceStable(renamed, func(a, b int) bool { return live[renamed[a].ID] < live[renamed[b].ID] })
	c.steps = append(renamed, c.steps[:c.j]...)
	c.rebuildPos()
	return marked
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
			if s.Blocks.UnsweptAt(0) && !s.MarkedAt(off) {
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
