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

	"rdgc/internal/gc/young"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// tenurer embeds heap.Tenurer under an unexported field name: the three
// methods are promoted, the field is not assignable from outside.
type tenurer = heap.Tenurer

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

	// young is the nursery (gens[0], kept in step with it) and its tenuring
	// state, the step shared with the other youngest-first collectors; it
	// answers the embedded tenurer. Tenuring applies to nursery-alone
	// collections only: wider windows keep their wholesale one-generation-
	// per-collection aging.
	young young.Gen
	tenurer

	// Scan state for refilterRemset, built once in New so a steady-state
	// collection allocates nothing: younger is the heap.PointsInto predicate
	// "points into a generation younger than refilterGen".
	keepBuf     []heap.Word
	refilterGen int
	younger     func(w heap.Word) bool
	keepEntry   func(obj heap.Word)
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
	for _, o := range opts {
		o(c)
	}
	for i, words := range sizes {
		c.gens = append(c.gens, h.NewSpace(fmt.Sprintf("gen-%d", i), words))
	}
	c.oldTo = h.ReserveSpace("gen-old-B", sizes[len(sizes)-1])
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
	c.younger = func(w heap.Word) bool {
		gv := c.genIdx(w)
		return gv >= 0 && gv < c.refilterGen
	}
	c.keepEntry = c.keepIfStillOlder
	c.young.Init(h, c.gens[0], c.evac, c.rs, &c.stats, c)
	c.tenurer = &c.young
	c.rebuildGenOf()
	h.SetAllocator(&c.young)
	h.SetBarrier(c)
	return c
}

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

// AllocRaw implements heap.Allocator with the nursery's ladder (young.Gen).
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word { return c.young.AllocRaw(t, payload) }

// AllocOld implements young.Old: objects too large for the nursery go
// directly to the old area.
func (c *Collector) AllocOld(t heap.Type, payload, total int) heap.Word {
	old := c.gens[len(c.gens)-1]
	off, ok := old.Bump(total)
	if !ok {
		c.Major(total)
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

// Minor implements young.Old: it collects generations 0..m, the window
// chooseWindow picks for a total-word allocation, promoting every survivor
// into generation m+1. m = len(gens)-1 is a full collection into the old
// to-space; m = 0 is the nursery alone, which may tenure.
func (c *Collector) Minor(total int) {
	m := c.chooseWindow(total)
	if m >= len(c.gens)-1 {
		c.Major(total)
		return
	}
	if m == 0 {
		c.collectNursery()
		return
	}
	target := c.gens[m+1]
	e := c.evac
	e.SetFrom(c.gens[:m+1]...)
	e.Begin(target)
	e.EvacuateRoots()
	c.window = m
	c.rs.ForEach(c.windowRoot)
	e.Drain()
	for i := 0; i <= m; i++ {
		c.gens[i].Reset()
	}
	c.refilterRemset()

	c.stats.WordsCopied += e.WordsCopied
	c.stats.WordsPromoted += e.WordsCopied
	// The window included the nursery and promoted it wholesale.
	c.young.Emptied()
	c.h.EndCollection(&c.stats, false, e.WordsCopied, c.Live(), c.rs.Peak())
}

// collectNursery collects the nursery alone through the shared young step:
// survivors are promoted to generation 1, except those a tenuring nursery
// retains. Only reached when chooseWindow picked m == 0, which guarantees
// generation 1 has headroom for the worst case.
func (c *Collector) collectNursery() {
	e := c.evac
	c.young.Begin(c.gens[1])
	e.EvacuateRoots()
	c.window = 0
	c.rs.ForEach(c.windowRoot)
	e.Drain()
	c.young.Flip()
	if c.gens[0] != c.young.Space() {
		c.gens[0] = c.young.Space()
		c.rebuildGenOf()
	}
	// Entries in generations 2 and up may point at generation 1, so the
	// set keeps this collector's older-to-younger rule, not the nursery's.
	c.refilterRemset()
	c.young.Finish()
	c.h.EndCollection(&c.stats, false, e.WordsCopied, c.Live(), c.rs.Peak())
}

// Major implements young.Old: it collects every generation into the old
// to-space and flips.
func (c *Collector) Major(int) {
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

	copied := e.WordsCopied
	c.stats.WordsCopied += copied
	c.young.AfterMajor(copied)

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
	c.h.EndCollection(&c.stats, true, copied, c.gens[last].Used(), c.rs.Peak())
}

// refilterRemset rescans every surviving entry and keeps only those that
// still contain a pointer into a strictly younger generation — the §8.4
// refinement. Entries that were themselves collected have forwarded or
// died; forwarded entries re-enter under their new address.
func (c *Collector) refilterRemset() {
	c.keepBuf = c.keepBuf[:0]
	c.rs.ForEach(c.keepEntry)
	c.rs.Clear()
	for _, w := range c.keepBuf {
		c.rs.Remember(w)
	}
}

// keepIfStillOlder is refilterRemset's per-entry visitor (c.keepEntry).
func (c *Collector) keepIfStillOlder(w heap.Word) {
	s := c.h.SpaceOf(w)
	off := heap.PtrOff(w)
	if off >= s.Top {
		return // entry died with its reset space
	}
	if hdr := s.Mem[off]; heap.IsPtr(hdr) {
		w = hdr // follow the forwarding left by the evacuation
		s = c.h.SpaceOf(w)
		off = heap.PtrOff(w)
	}
	c.refilterGen = c.genIdx(w)
	if heap.PointsInto(s, off, c.younger) {
		c.keepBuf = append(c.keepBuf, w)
	}
}

// Collect implements heap.Collector with a full collection.
func (c *Collector) Collect() { c.Major(0) }
