// Package generational implements the conventional, youngest-first
// generational collector the paper compares against in Table 3: an
// ephemeral nursery collected by stop-and-copy with wholesale promotion
// (Larceny's promoting collections move *all* live ephemeral objects, §8.4),
// feeding a dynamic old area managed as a semispace pair. A write barrier
// maintains the old-to-young remembered set.
//
// Under the radioactive decay model this collector concentrates effort on
// exactly the generations with the *least* garbage, which is the paper's
// Section 3 argument for why it loses to a non-generational collector there.
package generational

import (
	"fmt"

	"rdgc/internal/heap"
	"rdgc/internal/policy"
	"rdgc/internal/remset"
)

// Collector is a two-generation, youngest-first collector.
type Collector struct {
	h       *heap.Heap
	nursery *heap.Space
	oldFrom *heap.Space
	oldTo   *heap.Space
	rs      remset.Set
	stats   heap.GCStats

	// evac is the persistent Cheney engine, re-armed with SetFrom per
	// collection; the remembered-set root visitor is created once so
	// steady-state minor collections allocate nothing.
	evac       *heap.Evacuator
	remsetRoot func(heap.Word)

	expand float64

	// Age-based tenuring (heap/tenure.go). With threshold 1 (the default)
	// none of this exists and every path above runs unchanged: nurseryTo
	// is the survivor shadow the nursery flips against, trigger the
	// effective nursery size (cap, unless the adaptive controller moves
	// it), carry the survivor words retained at the last flip, and ctrl
	// the -gcadapt policy controller.
	threshold int
	trigger   int
	carry     int
	nurseryTo *heap.Space
	youngBuf  []*heap.Space
	keepBuf   []heap.Word
	ctrl      *policy.Controller
}

// Option configures the collector.
type Option func(*Collector)

// WithExpansion lets the old-area semispaces grow to keep the old area's
// inverse load factor at least invLoad.
func WithExpansion(invLoad float64) Option {
	if invLoad <= 1 {
		panic("generational: inverse load factor must exceed 1")
	}
	return func(c *Collector) { c.expand = invLoad }
}

// WithRemset substitutes a remembered-set representation (default HashSet).
func WithRemset(rs remset.Set) Option {
	return func(c *Collector) { c.rs = rs }
}

// New creates a conventional generational collector with the given nursery
// and old-semispace sizes in words, installing itself as h's allocator and
// write barrier.
func New(h *heap.Heap, nurseryWords, oldWords int, opts ...Option) *Collector {
	c := &Collector{
		h:       h,
		nursery: h.NewSpace("nursery", nurseryWords),
		oldFrom: h.NewSpace("old-A", oldWords),
		oldTo:   h.NewSpace("old-B", oldWords),
		rs:      remset.NewHashSet(),
	}
	c.evac = heap.NewEvacuator(h, nil)
	c.remsetRoot = func(w heap.Word) {
		c.stats.RemsetScanned++
		heap.ScanObject(c.h.SpaceOf(w), heap.PtrOff(w), c.evac.Slot())
	}
	c.threshold = h.Config().Tenure
	c.trigger = nurseryWords
	for _, o := range opts {
		o(c)
	}
	if h.Config().Adaptive {
		c.ctrl = policy.New(policy.Config{})
	}
	if c.threshold > 1 || c.ctrl != nil {
		// Tenuring needs a survivor shadow for within-nursery evacuation;
		// the adaptive harness arms it even at threshold 1 so the survival
		// counters flow from the first collection.
		c.nurseryTo = h.NewSpace("nursery-to", nurseryWords)
		c.nursery.EnsureAgeTable()
		c.nurseryTo.EnsureAgeTable()
		c.youngBuf = []*heap.Space{c.nurseryTo}
	}
	h.SetAllocator(c)
	h.SetBarrier(c)
	return c
}

// tenured reports whether minor collections run the age-routing engine.
func (c *Collector) tenured() bool { return c.nurseryTo != nil }

// TenureThreshold implements heap.Tenurer.
func (c *Collector) TenureThreshold() int { return c.threshold }

// YoungSpaces implements heap.Tenurer: the active nursery, then the
// survivor shadow when tenuring is armed.
func (c *Collector) YoungSpaces() []*heap.Space {
	if c.nurseryTo == nil {
		return []*heap.Space{c.nursery}
	}
	return []*heap.Space{c.nursery, c.nurseryTo}
}

// Adaptive implements heap.Tenurer.
func (c *Collector) Adaptive() bool { return c.ctrl != nil }

// Name implements heap.Collector.
func (c *Collector) Name() string { return "generational" }

// GCStats implements heap.Collector.
func (c *Collector) GCStats() *heap.GCStats { return &c.stats }

// Live returns the words in use across both generations.
func (c *Collector) Live() int { return c.nursery.Used() + c.oldFrom.Used() }

// OldWords returns the current old-semispace capacity.
func (c *Collector) OldWords() int { return c.oldFrom.Cap() }

// RemsetLen returns the current remembered-set size.
func (c *Collector) RemsetLen() int { return c.rs.Len() }

// VerifySpec implements heap.Verifiable: the nursery and the active old
// semispace are live (the old to-space is scratch), and every object
// outside the nursery that points into it must be remembered.
func (c *Collector) VerifySpec() heap.VerifySpec {
	return heap.VerifySpec{
		Live: []*heap.Space{c.nursery, c.oldFrom},
		Remsets: []heap.RemsetRule{{
			Name: "old->nursery",
			Needs: func(obj, val heap.Word) bool {
				return heap.PtrSpace(obj) != c.nursery.ID && heap.PtrSpace(val) == c.nursery.ID
			},
			Has: c.rs.Contains,
		}},
	}
}

// RecordWrite implements heap.Barrier: remember old objects that point
// into the nursery.
func (c *Collector) RecordWrite(obj, val heap.Word) {
	if !heap.IsPtr(val) || heap.PtrSpace(val) != c.nursery.ID {
		return
	}
	if heap.PtrSpace(obj) == c.nursery.ID {
		return
	}
	c.rs.Remember(obj)
}

// AllocRaw implements heap.Allocator. Objects too large for the nursery go
// directly to the old area, as real generational systems do.
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word {
	total := 1 + payload + c.h.ExtraWords()
	if total > c.nursery.Cap()/2 {
		return c.allocOld(t, payload, total)
	}
	if c.nursery.Top+total > c.trigger {
		// Same condition as a failed Bump when the trigger sits at the
		// nursery cap (the wholesale default); the adaptive controller may
		// pull it lower.
		c.collectNursery()
	}
	off, ok := c.nursery.Bump(total)
	if !ok && c.tenured() {
		// Retained survivors can leave too little room even after a minor;
		// a major empties the nursery wholesale and guarantees progress.
		c.major(total)
		off, ok = c.nursery.Bump(total)
	}
	if !ok {
		panic(fmt.Sprintf("generational: nursery cannot hold %d words", total))
	}
	return c.h.InitObject(c.nursery, off, t, payload)
}

// collectNursery dispatches a nursery collection to the wholesale or
// age-routing implementation.
func (c *Collector) collectNursery() {
	if c.tenured() {
		c.minorTenured()
	} else {
		c.minor()
	}
}

func (c *Collector) allocOld(t heap.Type, payload, total int) heap.Word {
	off, ok := c.oldFrom.Bump(total)
	if !ok {
		c.major(total)
		off, ok = c.oldFrom.Bump(total)
		if !ok {
			panic(fmt.Sprintf("generational: old area cannot hold %d words", total))
		}
	}
	return c.h.InitObject(c.oldFrom, off, t, payload)
}

// minor collects the nursery, promoting every survivor to the old area.
func (c *Collector) minor() {
	if c.oldFrom.Free() < c.nursery.Used() {
		// Not enough headroom to promote the worst case: collect everything.
		c.major(c.nursery.Used())
		return
	}
	e := c.evac
	e.SetFrom(c.nursery)
	e.Begin(c.oldFrom)
	e.EvacuateRoots()
	c.scanRemset()
	e.Drain()
	c.nursery.Reset()
	// Promotion empties the nursery, so no old-to-young pointers remain.
	c.rs.Clear()

	c.stats.Collections++
	c.stats.WordsCopied += e.WordsCopied
	c.stats.WordsPromoted += e.WordsCopied
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.stats.NoteLive(c.oldFrom.Used())
	c.notePeak()
	c.h.AfterGC()
}

// minorTenured collects the nursery with age routing: survivors younger
// than the threshold are evacuated into the survivor shadow (their age
// incremented in its side table), the rest are promoted to the old area,
// and the semispaces flip. Because retained survivors stay young, the
// remembered set must be refiltered rather than cleared.
func (c *Collector) minorTenured() {
	if c.oldFrom.Free() < c.nursery.Used() {
		// Not enough headroom to promote the worst case: collect everything.
		c.major(c.nursery.Used())
		return
	}
	fresh := c.nursery.Top - c.carry
	e := c.evac
	e.SetFrom(c.nursery)
	e.BeginTenured(c.threshold, c.youngBuf, c.oldFrom)
	e.EvacuateRoots()
	c.scanRemset()
	e.Drain()
	c.nursery.Reset()
	c.nursery, c.nurseryTo = c.nurseryTo, c.nursery
	c.youngBuf[0] = c.nurseryTo
	c.carry = c.nursery.Top
	c.refilterRemset()
	c.rememberPromoted()

	c.stats.Collections++
	c.stats.WordsCopied += e.WordsCopied
	c.stats.WordsPromoted += e.WordsPromoted
	c.stats.WordsTenured += e.WordsRetained
	c.stats.TenureThreshold = c.threshold
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.stats.NoteLive(c.oldFrom.Used() + c.nursery.Used())
	c.notePeak()
	if c.ctrl != nil {
		c.threshold, c.trigger = c.ctrl.Adapt(e, fresh, c.nursery, &c.stats)
	}
	c.h.AfterGC()
}

// refilterRemset drops remembered objects that no longer point into the
// (post-flip) nursery. Old-area objects do not move in a minor collection,
// so surviving entries keep their addresses; only entries whose nursery
// referents were all promoted (or died) are dropped.
func (c *Collector) refilterRemset() {
	keep := c.keepBuf[:0]
	nurseryID := c.nursery.ID
	found := false
	probe := func(slot *heap.Word) {
		if !found && heap.IsPtr(*slot) && heap.PtrSpace(*slot) == nurseryID {
			found = true
		}
	}
	c.rs.ForEach(func(obj heap.Word) {
		found = false
		heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), probe)
		if found {
			keep = append(keep, obj)
		}
	})
	c.rs.Clear()
	for _, w := range keep {
		c.rs.Remember(w)
	}
	c.keepBuf = keep[:0]
}

// rememberPromoted scans the objects this minor promoted into the old
// area: any that reference a retained survivor are old-to-young pointers
// the barrier never saw (both ends moved during the collection), so they
// enter the remembered set here. Must run after the nursery flip so the
// probe sees the live nursery's ID.
func (c *Collector) rememberPromoted() {
	nurseryID := c.nursery.ID
	found := false
	probe := func(slot *heap.Word) {
		if !found && heap.IsPtr(*slot) && heap.PtrSpace(*slot) == nurseryID {
			found = true
		}
	}
	c.evac.CopiedRegions(func(s *heap.Space, lo, hi int) {
		for off := lo; off < hi; off += heap.ObjWords(s.Mem[off]) {
			found = false
			heap.ScanObject(s, off, probe)
			if found {
				c.rs.Remember(heap.PtrWord(s.ID, off))
			}
		}
	})
}

// scanRemset treats every remembered object's fields as roots for a minor
// collection. Remembered objects may themselves be dead ("nepotism"); their
// nursery referents are conservatively retained, as in real collectors.
func (c *Collector) scanRemset() {
	c.rs.ForEach(c.remsetRoot)
}

// major collects both generations into the old to-space and flips.
func (c *Collector) major(need int) {
	if c.expand > 0 {
		// Worst case: everything currently allocated survives.
		worst := c.oldFrom.Used() + c.nursery.Used() + need
		if worst > c.oldTo.Cap() {
			c.oldTo.Resize(worst)
		}
	}
	e := c.evac
	e.SetFrom(c.nursery, c.oldFrom)
	e.Begin(c.oldTo)
	e.Run()
	c.nursery.Reset()
	c.oldFrom.Reset()
	c.oldFrom, c.oldTo = c.oldTo, c.oldFrom
	c.rs.Clear()

	c.stats.Collections++
	c.stats.MajorCollections++
	c.stats.WordsCopied += e.WordsCopied
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.stats.NoteLive(c.oldFrom.Used())
	c.notePeak()

	if c.tenured() {
		// The major promoted the whole nursery: no survivors are carried.
		c.carry = 0
		if c.ctrl != nil {
			c.ctrl.ObserveMajor(e.WordsCopied)
		}
	}

	if c.expand > 0 {
		live := c.oldFrom.Used()
		want := int(float64(live)*c.expand) + need
		if want > c.oldTo.Cap() {
			c.oldTo.Resize(want)
		}
		if want > c.oldFrom.Cap() {
			// Grow the active space too: copy once more into the (bigger)
			// to-space and flip back.
			e.SetFrom(c.oldFrom)
			e.Begin(c.oldTo)
			e.Run()
			c.oldFrom.Reset()
			c.oldFrom.Resize(want)
			c.oldFrom, c.oldTo = c.oldTo, c.oldFrom
		}
	}
	c.h.AfterGC()
}

// Collect implements heap.Collector with a full (major) collection.
func (c *Collector) Collect() { c.major(0) }

func (c *Collector) notePeak() {
	if p := c.rs.Peak(); p > c.stats.RemsetPeak {
		c.stats.RemsetPeak = p
	}
}
