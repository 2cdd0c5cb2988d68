// Package npms implements the alternative non-predictive collector that
// Section 8 of the paper says Larceny intends to add: a 2-generation
// non-predictive collector based on a mark/sweep algorithm with occasional
// compaction.
//
// The step structure and renaming discipline are those of Section 4, and so
// is the code: the steps, their shadows, j, the allocation cursor and the
// renamings are a core.Steps, the one the copying non-predictive collector
// and the hybrid run on. What this package adds is the algorithm. A
// collection marks steps j+1..k in place and sweeps them onto per-step free
// lists instead of copying survivors. The free lists are the plain mark/sweep
// collector's: a step is a blocked space whose table is one block spanning
// the step (heap.ReserveBlockedSpaceSpan, formatted by FreeFrom(0) once it
// has its memory), carved by heap.Space.AllocFromBlock and rebuilt by
// heap.Sweeper. Because survivors stay put, the renaming orders the
// collected steps by ascending occupancy — the emptiest become the new
// youngest steps — and the paper's assumption that all unavailable storage
// in steps 1..j is live holds exactly (a swept step contains only live
// objects and free blocks). Every CompactEvery-th
// collection is the copying collector's instead — core.Steps.Collect into
// the shadows, which then take free-list form — undoing fragmentation.
package npms

import (
	"fmt"

	"rdgc/internal/core"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// Collector is the mark/sweep non-predictive collector.
type Collector struct {
	h *heap.Heap
	// st is the step machinery. Steps and shadows trade places at every
	// compaction, so both are one-block blocked spaces, reserved alike: an
	// empty bump space without memory. A shadow's table stays empty (bump
	// form) until evacuation has filled it; a step the allocation cursor
	// reaches still reserved is backed and formatted as one free run by
	// AllocRaw's ladder.
	st *core.Steps
	g  float64 // generation fraction: j = floor(g*k)

	rs remset.Set

	// CompactEvery triggers a copying (compacting) collection every n-th
	// collection; 0 disables compaction.
	compactEvery int

	// marker and sweeper are the persistent engines, re-armed per
	// collection; the remembered-set root visitor and the rebuild callback
	// are bound once, so steady-state collections allocate nothing.
	marker     *heap.Marker
	sweeper    *heap.Sweeper
	markRemset func(obj heap.Word)
	remember   func(obj heap.Word)

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
	c := &Collector{
		h:            h,
		rs:           remset.NewHashSet(),
		g:            0.25,
		compactEvery: 8,
	}
	for _, o := range opts {
		o(c)
	}
	c.st = core.NewStepsOf(h, k, stepWords, "npms", func(name string, words int) *heap.Space {
		return h.ReserveBlockedSpaceSpan(name, words, words)
	})
	c.st.SetJ(int(c.g * float64(k)))
	c.marker = heap.NewMarker(h, nil)
	c.sweeper = heap.NewSweeper(h)
	c.markRemset = func(obj heap.Word) {
		c.stats.RemsetScanned++
		heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), c.marker.Slot())
	}
	c.remember = func(obj heap.Word) {
		// Dead storage in a step whose sweep is still pending stays out:
		// remembering it would leave the next cycle scanning words the lazy
		// sweep is about to free (and reallocation to repurpose).
		if s, off := c.h.SpaceOf(obj), heap.PtrOff(obj); !s.Blocks.UnsweptAt(0) || s.MarkedAt(off) {
			c.rs.Remember(obj)
		}
	}
	h.SetAllocator(c)
	h.SetBarrier(c)
	if h.Config().Incremental {
		c.incrInit()
	}
	return c
}

// Name implements heap.Collector.
func (c *Collector) Name() string { return "non-predictive mark/sweep" }

// GCStats implements heap.Collector.
func (c *Collector) GCStats() *heap.GCStats { return &c.stats }

// J returns the current tuning parameter.
func (c *Collector) J() int { return c.st.J() }

// K returns the step count.
func (c *Collector) K() int { return c.st.K() }

// Live returns the words occupied by non-free blocks across all steps.
func (c *Collector) Live() int {
	n := 0
	for _, s := range c.st.All() {
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
		Live: c.st.All(),
		Remsets: []heap.RemsetRule{{
			Name: "young->old",
			Needs: func(obj, val heap.Word) bool {
				return c.st.InYoung(obj) && c.st.InOld(val)
			},
			Has: c.rs.Contains,
		}},
		MarkingActive: c.phase == npMarking,
	}
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
	if c.st.InYoung(obj) && c.st.InOld(val) {
		c.rs.Remember(obj)
	}
}

// AllocRaw implements heap.Allocator: allocate in the highest-numbered step
// with a fitting free block; when none fits anywhere, collect.
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word {
	total := 1 + payload + c.h.ExtraWords()
	st := c.st
	if total > st.StepWords {
		panic(fmt.Sprintf("npms: object of %d words exceeds the step size %d", total, st.StepWords))
	}
	if c.incr != nil {
		c.incrTick(total)
	}
	for attempt := 0; ; attempt++ {
		for ; st.AllocIdx() >= 0; st.SetAllocIdx(st.AllocIdx() - 1) {
			s := st.Step(st.AllocIdx())
			if c.incr != nil && s.Blocks.UnsweptAt(0) {
				// A step's free list is stale until its deferred sweep runs.
				c.ensureSwept(s)
			}
			if off, ok := s.AllocFromBlock(0, total); ok {
				return c.h.InitObject(s, off, t, payload)
			}
			if s.Reserved() {
				// The cursor has reached a step without its memory: give
				// it the memory and the one free run of a fresh step.
				s.Back()
				s.FreeFrom(0)
				if off, ok := s.AllocFromBlock(0, total); ok {
					return c.h.InitObject(s, off, t, payload)
				}
			}
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
	m := c.marker
	m.SetRegion(c.old()...)
	m.Begin()
	m.MarkRoots()
	c.rs.ForEach(c.markRemset)
	m.Drain()

	// The rename reads occupancy off the marks, so it precedes the sweep,
	// which clears them.
	c.st.RenameOldBy((*heap.Space).MarkedLiveWords)
	swept := c.sweeper.Sweep(c.renamed()...)

	c.stats.WordsMarked += m.WordsMarked
	c.stats.WordsSwept += swept
	c.finishCollection(reset+m.WordsMarked+swept, m.WordsMarked)
}

// liveAfter is the occupancy a collection leaves behind, once it has renamed
// the steps: the collected steps, now 1..k-j, hold exactly the words it
// traced into them, so only steps it did not trace are walked. Live is the
// whole walk, and what this must equal.
func (c *Collector) liveAfter(traced uint64) int {
	live := int(traced)
	for _, s := range c.st.All()[c.st.K()-c.st.J():] {
		live += heap.LiveWords(s)
	}
	return live
}

// old returns the collected generation, steps j+1..k; once a collection has
// renamed them they are the new steps 1..k-j, which renamed returns.
func (c *Collector) old() []*heap.Space { return c.st.All()[c.st.J():] }

func (c *Collector) renamed() []*heap.Space { return c.st.All()[:c.st.K()-c.st.J()] }

// compact is the copying collector's collection of steps j+1..k — their live
// contents evacuated into the shadows, filled from the new oldest position
// downward, and the steps renamed — after which the compacted targets
// switch to free-list form: one run from the bump pointer to the end.
func (c *Collector) compact() {
	reset := c.stwReset()
	copied := c.st.Collect(nil, []remset.Set{c.rs}, &c.stats.RemsetScanned, false)
	for _, t := range c.renamed() {
		t.FreeFrom(t.Top)
	}

	c.stats.WordsCopied += copied
	c.finishCollection(reset+copied, copied)
}

// finishCollection puts the allocation cursor back on step k, rebuilds the
// remembered set (situation 4: surviving objects now in steps 1..j may point
// into steps j+1..k) and ends the collection, whose pause was pause words
// and which traced traced words into the collected steps.
func (c *Collector) finishCollection(pause, traced uint64) {
	c.st.SetAllocIdx(c.st.K() - 1)
	c.rs.Clear()
	c.st.ScanYoungForOldPointers(c.remember)
	c.h.EndCollection(&c.stats, true, pause, c.liveAfter(traced), c.rs.Peak())
}
