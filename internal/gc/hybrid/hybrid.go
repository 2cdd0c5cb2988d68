// Package hybrid implements the Larceny-style composition of Section 8: a
// conventional stop-and-copy ephemeral area (nursery) whose promoting
// collections move *all* live objects into a non-predictive dynamic area
// managed by the step machinery of internal/core.
//
// Two remembered sets are kept separate, as §8.4 prescribes: set A records
// dynamic-area objects that point into the ephemeral area (situations 3),
// and set B records objects in steps 1..j that point into steps j+1..k
// (situations 5 and 6). Situation 5 is detected when promotion places
// objects into steps 1..j; situations 1, 2 and 4 cannot arise because
// promoting collections empty the nursery and the recommended j policy
// keeps steps 1..j empty after a non-predictive collection.
package hybrid

import (
	"fmt"

	"rdgc/internal/core"
	"rdgc/internal/gc/young"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// tenurer embeds heap.Tenurer under an unexported field name: the three
// methods are promoted, the field is not assignable from outside.
type tenurer = heap.Tenurer

// Collector is the hybrid ephemeral + non-predictive collector.
type Collector struct {
	h *heap.Heap
	// young is the ephemeral area and its tenuring state, the step shared
	// with the other youngest-first collectors; it answers the embedded
	// tenurer. Remembered set A is its set.
	young young.Gen
	tenurer
	st *core.Steps

	rsA remset.Set // dynamic objects pointing into the nursery
	rsB remset.Set // steps-1..j objects pointing into steps j+1..k

	policy    core.JPolicy
	allowGrow bool

	// Persistent machinery for the collection hot paths, created once in New
	// so steady-state promoting collections allocate nothing: the Cheney
	// engine (re-armed with SetFrom per collection), the remembered-set
	// visitors, and a reusable target-list buffer.
	evac        *heap.Evacuator
	rsARoot     func(obj heap.Word)
	promoRegion func(s *heap.Space, from, to int)
	rememberB   func(obj heap.Word)
	rsAPromoted func(obj heap.Word)
	targetsBuf  []*heap.Space
	fromBuf     []*heap.Space

	// spills are the minor collection's overflow targets (spill), made on
	// first need and empty between collections; spilled counts the ones
	// the collection in progress has taken.
	spills  []*heap.Space
	spilled int

	stats heap.GCStats
}

// Option configures the collector.
type Option func(*Collector)

// WithPolicy substitutes the j policy (default core.Recommended).
func WithPolicy(p core.JPolicy) Option { return func(c *Collector) { c.policy = p } }

// WithRemsets substitutes both remembered-set representations.
func WithRemsets(a, b remset.Set) Option {
	return func(c *Collector) { c.rsA, c.rsB = a, b }
}

// WithGrowth permits the dynamic area to grow (by whole steps) when
// survivors overflow a non-predictive collection or promotion cannot fit.
func WithGrowth() Option { return func(c *Collector) { c.allowGrow = true } }

// New creates a hybrid collector with the given nursery size and k dynamic
// steps of stepWords each, installing itself as h's allocator and barrier.
func New(h *heap.Heap, nurseryWords, k, stepWords int, opts ...Option) *Collector {
	if nurseryWords/2 > stepWords {
		panic("hybrid: step size must be at least half the nursery size so any promoted object fits a step")
	}
	nursery := h.NewSpace("nursery", nurseryWords)
	c := &Collector{
		h:      h,
		st:     core.NewSteps(h, k, stepWords),
		rsA:    remset.NewHashSet(),
		rsB:    remset.NewHashSet(),
		policy: core.Recommended{},
	}
	for _, o := range opts {
		o(c)
	}
	c.evac = heap.NewEvacuator(h, nil)
	c.evac.Overflow = c.spill
	c.rsARoot = func(obj heap.Word) {
		c.stats.RemsetScanned++
		heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), c.evac.Slot())
	}
	inOld := c.st.InOld
	c.promoRegion = func(s *heap.Space, from, to int) {
		for off := from; off < to; off += heap.ObjWords(s.Mem[off]) {
			if heap.PointsInto(s, off, inOld) {
				c.rsB.Remember(heap.PtrWord(s.ID, off))
			}
		}
	}
	c.rememberB = c.rsB.Remember
	c.rsAPromoted = func(obj heap.Word) {
		// A promoting collection moves every nursery referent into the
		// steps, so a set-A entry in the young steps may now point into
		// steps j+1..k, which set B must track. The entry itself never moves
		// (set A records objects *outside* the nursery), so its updated
		// slots can be rescanned in place.
		if c.st.InYoung(obj) && heap.PointsInto(c.h.SpaceOf(obj), heap.PtrOff(obj), inOld) {
			c.rsB.Remember(obj)
		}
	}
	c.st.SetJ(c.policy.ChooseJ(k, k))
	c.young.Init(h, nursery, c.evac, c.rsA, &c.stats, c)
	c.tenurer = &c.young
	h.SetAllocator(&c.young)
	h.SetBarrier(c)
	return c
}

// Name implements heap.Collector.
func (c *Collector) Name() string { return "hybrid (ephemeral + non-predictive)" }

// GCStats implements heap.Collector.
func (c *Collector) GCStats() *heap.GCStats { return &c.stats }

// Steps exposes the dynamic-area machinery for tests and experiments.
func (c *Collector) Steps() *core.Steps { return c.st }

// Live returns the words in use in the nursery and the dynamic area.
func (c *Collector) Live() int {
	return c.young.Space().Used() + c.st.LiveStepWords()
}

// RemsetLens returns the current sizes of remembered sets A and B.
func (c *Collector) RemsetLens() (a, b int) { return c.rsA.Len(), c.rsB.Len() }

// VerifySpec implements heap.Verifiable: the nursery and the k steps are
// live (shadows are scratch), and the two remembered sets must cover the
// §8.4 situations the write barrier records — set A for pointers into the
// nursery from outside it, set B for young-step pointers into the collected
// steps.
func (c *Collector) VerifySpec() heap.VerifySpec {
	nursery := c.young.Space()
	return heap.VerifySpec{
		Live: append([]*heap.Space{nursery}, c.st.All()...),
		Remsets: []heap.RemsetRule{{
			Name: "A: outside->nursery",
			Needs: func(obj, val heap.Word) bool {
				return heap.PtrSpace(obj) != nursery.ID && heap.PtrSpace(val) == nursery.ID
			},
			Has: c.rsA.Contains,
		}, {
			Name: "B: young->old",
			Needs: func(obj, val heap.Word) bool {
				return c.st.InYoung(obj) && c.st.InOld(val)
			},
			Has: c.rsB.Contains,
		}},
	}
}

// RecordWrite implements heap.Barrier. Set A records pointers into the
// nursery from anywhere outside it; set B records pointers into the
// collected steps from the uncollected young steps (situations 5 and 6).
func (c *Collector) RecordWrite(obj, val heap.Word) {
	if !heap.IsPtr(val) {
		return
	}
	if nursery := c.young.Space().ID; heap.PtrSpace(val) == nursery {
		if heap.PtrSpace(obj) != nursery {
			c.rsA.Remember(obj)
		}
		return
	}
	if c.st.InYoung(obj) && c.st.InOld(val) {
		c.rsB.Remember(obj)
	}
}

// AllocRaw implements heap.Allocator with the nursery's ladder (young.Gen).
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word { return c.young.AllocRaw(t, payload) }

// AllocOld implements young.Old: objects too large for the nursery are
// allocated directly in the dynamic area, on the ladder of Steps.Alloc.
func (c *Collector) AllocOld(t heap.Type, payload, total int) heap.Word {
	s, off := c.st.Alloc(total, c.Collect, c.allowGrow)
	return c.h.InitObject(s, off, t, payload)
}

// Minor implements young.Old with a promoting collection through the
// shared young step.
// Following §8.4, Larceny decides up front whether *all* promoted survivors
// go into the generation comprising steps j+1..k or all into steps 1..j —
// never some into each. The old region is preferred; when it lacks
// worst-case headroom the survivors go to the young steps (creating
// situation-5 remembered-set entries); when neither region alone has room,
// a non-predictive collection (which itself empties the nursery) runs
// instead. A tenuring nursery retains its under-threshold survivors and
// promotes the rest under the same decision.
func (c *Collector) Minor(int) {
	var targets []*heap.Space
	intoYoung := false
	worst := c.young.Space().Used()
	if c.regionFree(c.st.J(), c.st.K()) >= worst {
		targets = c.regionTargets(c.st.J(), c.st.K())
	} else if c.regionFree(0, c.st.J()) >= worst {
		targets = c.regionTargets(0, c.st.J())
		intoYoung = true
	} else {
		c.Major(0)
		return
	}
	e := c.evac
	c.young.Begin(targets...)
	e.EvacuateRoots()
	c.rsA.ForEach(c.rsARoot)
	e.Drain()

	// Promotion turned nursery pointers held by set-A entries into step
	// pointers; migrate the entries that set B must now cover before set A
	// is refiltered (the transition §8.4 calls situation 3 becoming 5 or
	// 6). Entries themselves never move.
	c.rsA.ForEach(c.rsAPromoted)

	c.young.Flip()
	c.young.Refilter()
	c.young.Finish()
	c.st.RecomputeAllocIdx()

	if intoYoung {
		// Situation 5: promoted objects pointing into steps j+1..k enter
		// remembered set B. Only the freshly copied regions need scanning,
		// and the paper notes the marginal cost of this test is small.
		e.CopiedRegions(c.promoRegion)
	}
	if c.spilled > 0 {
		// Survivors spilled past the region. A full collection (j = 0)
		// traces from the roots alone, so the sets, which do not follow
		// pointers into the spill, are dropped rather than scanned.
		c.rsA.Clear()
		c.rsB.Clear()
		c.FullCollect()
		return
	}
	c.h.EndCollection(&c.stats, false, e.WordsCopied, c.Live(), c.remsetPeak())
}

// spill is the minor collection's Overflow. The worst-case test sums a
// region's free words, but an object never straddles two steps, so the
// free tails the survivors leave can add up to more than the region
// holds of them. What no step takes goes to a spill space of one step's
// size (a nursery object is at most half a step), and the minor ends in
// the full collection that empties it.
func (c *Collector) spill(int) *heap.Space {
	if c.spilled == len(c.spills) {
		c.spills = append(c.spills, c.h.NewSpace(fmt.Sprintf("hybrid-spill-%d", c.spilled), c.st.StepWords))
	}
	c.spilled++
	return c.spills[c.spilled-1]
}

// regionFree sums free words in logical step positions [lo, hi).
func (c *Collector) regionFree(lo, hi int) int {
	n := 0
	for p := lo; p < hi; p++ {
		n += c.st.Step(p).Free()
	}
	return n
}

// regionTargets returns the steps in positions [lo, hi) that have free
// space, highest-numbered first (the paper's promotion order). The result
// shares the collector's reusable buffer and is valid until the next call.
func (c *Collector) regionTargets(lo, hi int) []*heap.Space {
	out := c.targetsBuf[:0]
	for p := hi - 1; p >= lo; p-- {
		if c.st.Step(p).Free() > 0 {
			out = append(out, c.st.Step(p))
		}
	}
	c.targetsBuf = out
	return out
}

// Major implements young.Old with one non-predictive collection of steps
// j+1..k, evacuating the nursery along with it ("a non-predictive
// collection always promotes all live objects out of the ephemeral area",
// §8.4), and the spill spaces of a minor that ends in it, whose copying is
// then part of its pause. Remembered objects in the uncollected steps 1..j
// may hold the only pointers into the nursery (set A) or into steps j+1..k
// (set B), so both sets are its roots.
func (c *Collector) Major(int) {
	from := append(c.fromBuf[:0], c.young.Space())
	var minor uint64
	if c.spilled > 0 {
		from = append(from, c.spills[:c.spilled]...)
		minor = c.evac.WordsCopied
		c.spilled = 0
	}
	c.fromBuf = from
	copied := c.st.Collect(from, []remset.Set{c.rsA, c.rsB}, &c.stats.RemsetScanned, c.allowGrow)

	for _, s := range from {
		s.Reset()
	}
	c.rsA.Clear()
	c.rsB.Clear() // rebuilt by Renew's situation-4 rescan
	// A dynamic area with less than two nursery loads free would collect
	// again almost at once.
	c.st.Renew(c.policy, c.allowGrow, 2*c.young.Space().Cap(), c.rememberB)

	c.stats.WordsCopied += copied
	c.young.AfterMajor(copied)
	c.h.EndCollection(&c.stats, true, minor+copied, c.st.LiveStepWords(), c.remsetPeak())
}

// Collect implements heap.Collector with a non-predictive collection.
func (c *Collector) Collect() { c.Major(0) }

// FullCollect collects the entire dynamic area and nursery (j = 0 for one
// cycle), reclaiming all garbage including cross-step cycles.
func (c *Collector) FullCollect() {
	c.st.SetJ(0)
	c.Major(0)
}

// remsetPeak is the two sets' peaks together, the figure GCStats.RemsetPeak
// tracks for this collector.
func (c *Collector) remsetPeak() int { return c.rsA.Peak() + c.rsB.Peak() }
