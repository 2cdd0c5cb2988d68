// Package multigen implements a conventional multi-generation collector in
// the style the paper's Section 7 describes for Larceny: a pipeline of
// aging generations between the nursery and a semispace-managed old area
// (compare Lieberman–Hewitt and the promotion pipelines of [2, 9, 19, 26,
// 35, 36] in the paper's related work). Objects are promoted one region per
// collection, so the generation an object lives in approximates its age in
// collections — the youngest-first heuristic at its most refined, and
// therefore the sharpest contrast with the non-predictive collector: under
// the radioactive decay model no amount of aging fidelity helps
// (BenchmarkAblationTenuring).
//
// The remembered set records objects in *older* generations that point into
// *younger* ones. After each collection it is re-filtered by rescanning
// each surviving entry — the refinement §8.4 describes ("when an object in
// the remembered set is traced, the collector can determine whether it
// still contains any cross-generational pointers").
package multigen

import (
	"fmt"

	"rdgc/internal/heap"
	"rdgc/internal/policy"
	"rdgc/internal/remset"
)

// Collector is an n-generation youngest-first collector: generations
// 0..n-2 are bump regions of aging objects and generation n-1 is a
// semispace pair.
type Collector struct {
	h     *heap.Heap
	gens  []*heap.Space // gens[0] is the nursery; gens[n-1] is oldFrom
	oldTo *heap.Space
	genOf []int8 // SpaceID -> generation index, -1 otherwise

	rs    remset.Set
	stats heap.GCStats

	// evac is the persistent Cheney engine, re-armed with SetFrom per
	// collection; window and windowRoot implement the remembered-set root
	// scan for a collection of generations 0..window without building a
	// fresh closure each time.
	evac       *heap.Evacuator
	window     int
	windowRoot func(obj heap.Word)

	expand float64

	// Age-based tenuring (heap/tenure.go), applied to the nursery only:
	// nursery-window collections retain under-threshold survivors in the
	// gen0To shadow instead of promoting them to generation 1. Wider
	// windows keep their wholesale one-generation-per-collection aging.
	// All nil/zero under the default threshold of 1.
	threshold int
	trigger   int
	carry     int
	gen0To    *heap.Space
	youngBuf  []*heap.Space
	ctrl      *policy.Controller
}

// Option configures the collector.
type Option func(*Collector)

// WithExpansion lets the old semispaces grow to keep their inverse load
// factor at least invLoad.
func WithExpansion(invLoad float64) Option {
	if invLoad <= 1 {
		panic("multigen: inverse load factor must exceed 1")
	}
	return func(c *Collector) { c.expand = invLoad }
}

// WithRemset substitutes the remembered-set representation.
func WithRemset(rs remset.Set) Option { return func(c *Collector) { c.rs = rs } }

// New creates a collector whose generation sizes (in words, youngest
// first) are given explicitly; the last size is the old-semispace size.
// len(sizes) >= 2.
func New(h *heap.Heap, sizes []int, opts ...Option) *Collector {
	if len(sizes) < 2 {
		panic("multigen: need at least 2 generations")
	}
	c := &Collector{h: h, rs: remset.NewHashSet()}
	c.threshold = h.Config().Tenure
	for _, o := range opts {
		o(c)
	}
	for i, words := range sizes {
		c.gens = append(c.gens, h.NewSpace(fmt.Sprintf("gen-%d", i), words))
	}
	c.oldTo = h.NewSpace("gen-old-B", sizes[len(sizes)-1])
	c.trigger = sizes[0]
	c.evac = heap.NewEvacuator(h, nil)
	c.windowRoot = func(obj heap.Word) {
		// Remembered objects in generations > window may hold the only
		// pointers into the window; entries inside it are collected with it.
		if g := c.genIdx(obj); g >= 0 && g <= c.window {
			return
		}
		c.stats.RemsetScanned++
		heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), c.evac.Slot())
	}
	if h.Config().Adaptive {
		c.ctrl = policy.New(policy.Config{})
	}
	if c.threshold > 1 || c.ctrl != nil {
		c.gen0To = h.NewSpace("gen-0-to", sizes[0])
		c.gens[0].EnsureAgeTable()
		c.gen0To.EnsureAgeTable()
		c.youngBuf = []*heap.Space{c.gen0To}
	}
	c.rebuildGenOf()
	h.SetAllocator(c)
	h.SetBarrier(c)
	return c
}

// tenured reports whether nursery collections run the age-routing engine.
func (c *Collector) tenured() bool { return c.gen0To != nil }

// TenureThreshold implements heap.Tenurer.
func (c *Collector) TenureThreshold() int { return c.threshold }

// YoungSpaces implements heap.Tenurer: the nursery, then the survivor
// shadow when tenuring is armed.
func (c *Collector) YoungSpaces() []*heap.Space {
	if c.gen0To == nil {
		return []*heap.Space{c.gens[0]}
	}
	return []*heap.Space{c.gens[0], c.gen0To}
}

// Adaptive implements heap.Tenurer.
func (c *Collector) Adaptive() bool { return c.ctrl != nil }

func (c *Collector) rebuildGenOf() {
	if n := len(c.h.Spaces); n > len(c.genOf) {
		c.genOf = append(c.genOf, make([]int8, n-len(c.genOf))...)
	}
	for i := range c.genOf {
		c.genOf[i] = -1
	}
	for i, s := range c.gens {
		c.genOf[s.ID] = int8(i)
	}
}

func (c *Collector) genIdx(w heap.Word) int {
	id := heap.PtrSpace(w)
	if int(id) >= len(c.genOf) {
		return -1
	}
	return int(c.genOf[id])
}

// Name implements heap.Collector.
func (c *Collector) Name() string {
	return fmt.Sprintf("multigen(%d)", len(c.gens))
}

// GCStats implements heap.Collector.
func (c *Collector) GCStats() *heap.GCStats { return &c.stats }

// Live returns the words in use across all generations.
func (c *Collector) Live() int {
	n := 0
	for _, g := range c.gens {
		n += g.Used()
	}
	return n
}

// RemsetLen returns the current remembered-set size.
func (c *Collector) RemsetLen() int { return c.rs.Len() }

// VerifySpec implements heap.Verifiable: the generations are live (the old
// to-space is scratch), and every object pointing into a strictly younger
// generation must be remembered.
func (c *Collector) VerifySpec() heap.VerifySpec {
	return heap.VerifySpec{
		Live: c.gens,
		Remsets: []heap.RemsetRule{{
			Name: "older->younger",
			Needs: func(obj, val heap.Word) bool {
				go1, gv := c.genIdx(obj), c.genIdx(val)
				return go1 > gv && gv >= 0
			},
			Has: c.rs.Contains,
		}},
	}
}

// RecordWrite implements heap.Barrier: remember objects that point into a
// strictly younger generation.
func (c *Collector) RecordWrite(obj, val heap.Word) {
	if !heap.IsPtr(val) {
		return
	}
	go1, gv := c.genIdx(obj), c.genIdx(val)
	if go1 > gv && gv >= 0 {
		c.rs.Remember(obj)
	}
}

// AllocRaw implements heap.Allocator. Objects too large for the nursery go
// directly to the old area.
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word {
	total := 1 + payload + c.h.ExtraWords()
	if total > c.gens[0].Cap()/2 {
		return c.allocOld(t, payload, total)
	}
	if c.gens[0].Top+total > c.trigger {
		// Same condition as a failed Bump when the trigger sits at the
		// nursery cap (the wholesale default); the adaptive controller may
		// pull it lower.
		c.collectUpTo(c.chooseWindow(total))
	}
	off, ok := c.gens[0].Bump(total)
	if !ok && c.tenured() {
		// Retained survivors can leave too little room even after a
		// nursery collection; a major empties every generation.
		c.major()
		off, ok = c.gens[0].Bump(total)
	}
	if !ok {
		panic(fmt.Sprintf("multigen: nursery cannot hold %d words", total))
	}
	return c.h.InitObject(c.gens[0], off, t, payload)
}

func (c *Collector) allocOld(t heap.Type, payload, total int) heap.Word {
	old := c.gens[len(c.gens)-1]
	off, ok := old.Bump(total)
	if !ok {
		c.collectUpTo(len(c.gens) - 1)
		old = c.gens[len(c.gens)-1]
		off, ok = old.Bump(total)
		if !ok {
			panic(fmt.Sprintf("multigen: old area cannot hold %d words", total))
		}
	}
	return c.h.InitObject(old, off, t, payload)
}

// chooseWindow picks the highest generation that must be included in the
// next collection: generations 0..m are collected together when
// generation m+1 lacks room for their worst-case survivors.
func (c *Collector) chooseWindow(need int) int {
	worst := need
	for m := 0; m < len(c.gens)-1; m++ {
		worst += c.gens[m].Used()
		if c.gens[m+1].Free() >= worst {
			return m
		}
	}
	return len(c.gens) - 1
}

// collectUpTo collects generations 0..m, promoting every survivor into
// generation m+1. m = len(gens)-1 is a full collection into the old
// to-space.
func (c *Collector) collectUpTo(m int) {
	last := len(c.gens) - 1
	if m >= last {
		c.major()
		return
	}
	if m == 0 && c.tenured() {
		c.minorTenured()
		return
	}
	target := c.gens[m+1]
	e := c.evac
	e.SetFrom(c.gens[:m+1]...)
	e.Begin(target)
	c.h.VisitRoots(e.Slot())
	c.window = m
	c.rs.ForEach(c.windowRoot)
	e.Drain()
	for i := 0; i <= m; i++ {
		c.gens[i].Reset()
	}
	c.refilterRemset()

	c.stats.Collections++
	c.stats.WordsCopied += e.WordsCopied
	c.stats.WordsPromoted += e.WordsCopied
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.notePeak()
	if c.tenured() {
		// The window included the nursery and promoted it wholesale.
		c.carry = 0
	}
	c.h.AfterGC()
}

// minorTenured collects the nursery alone with age routing: survivors
// younger than the threshold flip into the gen0To shadow with their side-
// table ages incremented, the rest are promoted to generation 1. Only
// reached when chooseWindow picked m == 0, which guarantees generation 1
// has headroom for the worst case.
func (c *Collector) minorTenured() {
	nursery := c.gens[0]
	fresh := nursery.Top - c.carry
	e := c.evac
	e.SetFrom(nursery)
	e.BeginTenured(c.threshold, c.youngBuf, c.gens[1])
	e.EvacuateRoots()
	c.window = 0
	c.rs.ForEach(c.windowRoot)
	e.Drain()
	nursery.Reset()
	c.gens[0], c.gen0To = c.gen0To, c.gens[0]
	c.youngBuf[0] = c.gen0To
	c.rebuildGenOf()
	c.carry = c.gens[0].Top
	c.refilterRemset()
	c.rememberPromoted()

	c.stats.Collections++
	c.stats.WordsCopied += e.WordsCopied
	c.stats.WordsPromoted += e.WordsPromoted
	c.stats.WordsTenured += e.WordsRetained
	c.stats.TenureThreshold = c.threshold
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.notePeak()
	if c.ctrl != nil {
		c.threshold, c.trigger = c.ctrl.Adapt(e, fresh, c.gens[0], &c.stats)
	}
	c.h.AfterGC()
}

// rememberPromoted scans the objects this collection promoted into
// generation 1: any that reference a retained nursery survivor are
// older-to-younger pointers the barrier never saw (both ends moved during
// the collection). Must run after the flip and rebuildGenOf.
func (c *Collector) rememberPromoted() {
	found := false
	g := 0
	probe := func(slot *heap.Word) {
		if found || !heap.IsPtr(*slot) {
			return
		}
		if gv := c.genIdx(*slot); gv >= 0 && gv < g {
			found = true
		}
	}
	c.evac.CopiedRegions(func(s *heap.Space, lo, hi int) {
		for off := lo; off < hi; off += heap.ObjWords(s.Mem[off]) {
			g = c.genIdx(heap.PtrWord(s.ID, off))
			found = false
			heap.ScanObject(s, off, probe)
			if found {
				c.rs.Remember(heap.PtrWord(s.ID, off))
			}
		}
	})
}

// major collects every generation into the old to-space and flips.
func (c *Collector) major() {
	last := len(c.gens) - 1
	if c.expand > 0 {
		worst := 0
		for _, g := range c.gens {
			worst += g.Used()
		}
		if worst > c.oldTo.Cap() {
			c.oldTo.Resize(worst)
		}
	}
	e := c.evac
	e.SetFrom(c.gens...)
	e.Begin(c.oldTo)
	e.Run()
	for _, g := range c.gens {
		g.Reset()
	}
	c.gens[last], c.oldTo = c.oldTo, c.gens[last]
	c.rebuildGenOf()
	c.rs.Clear()

	c.stats.Collections++
	c.stats.MajorCollections++
	c.stats.WordsCopied += e.WordsCopied
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.stats.NoteLive(c.gens[last].Used())
	c.notePeak()

	if c.tenured() {
		c.carry = 0
		if c.ctrl != nil {
			c.ctrl.ObserveMajor(e.WordsCopied)
		}
	}

	if c.expand > 0 {
		live := c.gens[last].Used()
		want := int(float64(live) * c.expand)
		if want > c.oldTo.Cap() {
			c.oldTo.Resize(want)
		}
		if want > c.gens[last].Cap() {
			e.SetFrom(c.gens[last])
			e.Begin(c.oldTo)
			e.Run()
			c.gens[last].Reset()
			c.gens[last].Resize(want)
			c.gens[last], c.oldTo = c.oldTo, c.gens[last]
			c.rebuildGenOf()
		}
	}
	c.h.AfterGC()
}

// refilterRemset rescans every surviving entry and keeps only those that
// still contain a pointer into a strictly younger generation — the §8.4
// refinement. Entries that were themselves collected have forwarded or
// died; forwarded entries re-enter under their new address.
func (c *Collector) refilterRemset() {
	var keep []heap.Word
	c.rs.ForEach(func(obj heap.Word) {
		w := obj
		s := c.h.SpaceOf(w)
		off := heap.PtrOff(w)
		if off >= s.Top {
			return // entry died with its reset space
		}
		hdr := s.Mem[off]
		if heap.IsPtr(hdr) {
			w = hdr // follow the forwarding left by the evacuation
			s = c.h.SpaceOf(w)
			off = heap.PtrOff(w)
		}
		g := c.genIdx(w)
		still := false
		heap.ScanObject(s, off, func(slot *heap.Word) {
			if still || !heap.IsPtr(*slot) {
				return
			}
			if gv := c.genIdx(*slot); gv >= 0 && gv < g {
				still = true
			}
		})
		if still {
			keep = append(keep, w)
		}
	})
	c.rs.Clear()
	for _, w := range keep {
		c.rs.Remember(w)
	}
}

// Collect implements heap.Collector with a full collection.
func (c *Collector) Collect() { c.major() }

func (c *Collector) notePeak() {
	if p := c.rs.Peak(); p > c.stats.RemsetPeak {
		c.stats.RemsetPeak = p
	}
}
