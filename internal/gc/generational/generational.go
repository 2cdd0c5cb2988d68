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

	"rdgc/internal/gc/young"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// tenurer embeds heap.Tenurer under an unexported field name: the three
// methods are promoted, the field is not assignable from outside.
type tenurer = heap.Tenurer

// Collector is a two-generation, youngest-first collector.
type Collector struct {
	h *heap.Heap
	// young is the nursery and its tenuring state, the step shared with the
	// other youngest-first collectors; it answers the embedded tenurer.
	young young.Gen
	tenurer
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
	nursery := h.NewSpace("nursery", nurseryWords)
	c := &Collector{
		h:       h,
		oldFrom: h.NewSpace("old-A", oldWords),
		oldTo:   h.ReserveSpace("old-B", oldWords),
		rs:      remset.NewHashSet(),
	}
	c.evac = heap.NewEvacuator(h, nil)
	c.remsetRoot = func(w heap.Word) {
		c.stats.RemsetScanned++
		heap.ScanObject(c.h.SpaceOf(w), heap.PtrOff(w), c.evac.Slot())
	}
	for _, o := range opts {
		o(c)
	}
	c.young.Init(h, nursery, c.evac, c.rs, &c.stats, c)
	c.tenurer = &c.young
	h.SetAllocator(&c.young)
	h.SetBarrier(c)
	return c
}

// Name implements heap.Collector.
func (c *Collector) Name() string { return "generational" }

// GCStats implements heap.Collector.
func (c *Collector) GCStats() *heap.GCStats { return &c.stats }

// Live returns the words in use across both generations.
func (c *Collector) Live() int { return c.young.Space().Used() + c.oldFrom.Used() }

// OldWords returns the current old-semispace capacity.
func (c *Collector) OldWords() int { return c.oldFrom.Cap() }

// RemsetLen returns the current remembered-set size.
func (c *Collector) RemsetLen() int { return c.rs.Len() }

// VerifySpec implements heap.Verifiable: the nursery and the active old
// semispace are live (the old to-space is scratch), and every object
// outside the nursery that points into it must be remembered.
func (c *Collector) VerifySpec() heap.VerifySpec {
	nursery := c.young.Space()
	return heap.VerifySpec{
		Live: []*heap.Space{nursery, c.oldFrom},
		Remsets: []heap.RemsetRule{{
			Name: "old->nursery",
			Needs: func(obj, val heap.Word) bool {
				return heap.PtrSpace(obj) != nursery.ID && heap.PtrSpace(val) == nursery.ID
			},
			Has: c.rs.Contains,
		}},
	}
}

// RecordWrite implements heap.Barrier: remember old objects that point
// into the nursery.
func (c *Collector) RecordWrite(obj, val heap.Word) {
	if !heap.IsPtr(val) || heap.PtrSpace(val) != c.young.Space().ID {
		return
	}
	if heap.PtrSpace(obj) == c.young.Space().ID {
		return
	}
	c.rs.Remember(obj)
}

// AllocRaw implements heap.Allocator with the nursery's ladder (young.Gen).
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word { return c.young.AllocRaw(t, payload) }

// AllocOld implements young.Old: objects too large for the nursery go
// directly to the old area, as real generational systems do.
func (c *Collector) AllocOld(t heap.Type, payload, total int) heap.Word {
	off, ok := c.oldFrom.Bump(total)
	if !ok {
		c.Major(total)
		off, ok = c.oldFrom.Bump(total)
		if !ok {
			panic(fmt.Sprintf("generational: old area cannot hold %d words", total))
		}
	}
	return c.h.InitObject(c.oldFrom, off, t, payload)
}

// Minor implements young.Old: it collects the nursery through the shared
// young step, promoting survivors to the old area except those a tenuring
// nursery retains.
func (c *Collector) Minor(int) {
	nursery := c.young.Space()
	if c.oldFrom.Free() < nursery.Used() {
		// Not enough headroom to promote the worst case: collect everything.
		c.Major(nursery.Used())
		return
	}
	e := c.evac
	c.young.Begin(c.oldFrom)
	e.EvacuateRoots()
	c.scanRemset()
	e.Drain()
	c.young.Flip()
	c.young.Refilter()
	c.young.Finish()
	c.h.EndCollection(&c.stats, false, e.WordsCopied, c.Live(), c.rs.Peak())
}

// scanRemset treats every remembered object's fields as roots for a minor
// collection. Remembered objects may themselves be dead ("nepotism"); their
// nursery referents are conservatively retained, as in real collectors.
func (c *Collector) scanRemset() {
	c.rs.ForEach(c.remsetRoot)
}

// Major implements young.Old: it collects both generations into the old
// to-space and flips, leaving need words of headroom when the old area
// may expand.
func (c *Collector) Major(need int) {
	if c.expand > 0 {
		// Worst case: everything currently allocated survives.
		worst := c.oldFrom.Used() + c.young.Space().Used() + need
		if worst > c.oldTo.Cap() {
			c.oldTo.Resize(worst)
		}
	}
	e := c.evac
	e.SetFrom(c.young.Space(), c.oldFrom)
	e.Begin(c.oldTo)
	e.Run()
	c.young.Space().Reset()
	c.oldFrom.Reset()
	c.oldFrom, c.oldTo = c.oldTo, c.oldFrom
	c.rs.Clear()

	copied := e.WordsCopied
	c.stats.WordsCopied += copied
	c.young.AfterMajor(copied)

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
	c.h.EndCollection(&c.stats, true, copied, c.oldFrom.Used(), c.rs.Peak())
}

// Collect implements heap.Collector with a full (major) collection.
func (c *Collector) Collect() { c.Major(0) }
