package core

import (
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// Collector is the standalone 2-generation non-predictive collector of
// Section 4: mutator allocation goes directly into the steps, and the write
// barrier maintains the remembered set of objects in steps 1..j that point
// into steps j+1..k (the reverse of a conventional collector's remembered
// set — §8.3).
type Collector struct {
	h  *heap.Heap
	st *Steps
	rs remset.Set

	policy    JPolicy
	allowGrow bool

	// rememberFn caches rs.Remember, so steady-state collections allocate
	// nothing.
	rememberFn func(obj heap.Word)

	stats heap.GCStats
}

// Option configures the collector.
type Option func(*Collector)

// WithPolicy substitutes the j policy (default Recommended).
func WithPolicy(p JPolicy) Option { return func(c *Collector) { c.policy = p } }

// WithRemset substitutes the remembered-set representation (default HashSet).
func WithRemset(rs remset.Set) Option { return func(c *Collector) { c.rs = rs } }

// WithGrowth permits the step heap to grow when survivors overflow the
// collected region (fixed-size heaps panic instead).
func WithGrowth() Option { return func(c *Collector) { c.allowGrow = true } }

// New creates a non-predictive collector with k steps of stepWords words
// each, installing itself as h's allocator and write barrier.
func New(h *heap.Heap, k, stepWords int, opts ...Option) *Collector {
	c := &Collector{
		h:      h,
		st:     NewSteps(h, k, stepWords),
		rs:     remset.NewHashSet(),
		policy: Recommended{},
	}
	for _, o := range opts {
		o(c)
	}
	c.rememberFn = c.rs.Remember
	c.st.SetJ(c.policy.ChooseJ(k, k)) // all steps start empty
	h.SetAllocator(c)
	h.SetBarrier(c)
	return c
}

// Name implements heap.Collector.
func (c *Collector) Name() string { return "non-predictive" }

// GCStats implements heap.Collector.
func (c *Collector) GCStats() *heap.GCStats { return &c.stats }

// Steps exposes the step machinery for inspection by tests and experiments.
func (c *Collector) Steps() *Steps { return c.st }

// J returns the current tuning parameter.
func (c *Collector) J() int { return c.st.J() }

// Live returns the words in use across all steps.
func (c *Collector) Live() int { return c.st.LiveStepWords() }

// HeapWords returns the step heap capacity (shadows excluded, matching the
// paper's accounting of heap size N).
func (c *Collector) HeapWords() int { return c.st.K() * c.st.StepWords }

// RemsetLen returns the current remembered-set size.
func (c *Collector) RemsetLen() int { return c.rs.Len() }

// VerifySpec implements heap.Verifiable: the k steps are live (shadows and
// retired spill spaces are scratch), and every young-step object pointing
// into an old step must be remembered — the §8.3 barrier invariant.
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
	}
}

// RecordWrite implements heap.Barrier: remember objects in steps 1..j that
// receive a pointer into steps j+1..k.
func (c *Collector) RecordWrite(obj, val heap.Word) {
	if heap.IsPtr(val) && c.st.InYoung(obj) && c.st.InOld(val) {
		c.rs.Remember(obj)
	}
}

// AllocRaw implements heap.Allocator: allocate in the highest-numbered step
// with free space; when all steps are full, collect steps j+1..k (the
// ladder of Steps.Alloc).
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word {
	total := 1 + payload + c.h.ExtraWords()
	s, off, ok := c.st.Bump(total)
	if !ok {
		s, off = c.st.Alloc(total, c.Collect, c.allowGrow)
	}
	return c.h.InitObject(s, off, t, payload)
}

// Collect implements heap.Collector: one non-predictive collection of
// steps j+1..k, followed by renaming and the choice of a new j.
func (c *Collector) Collect() {
	// Remembered entries lie in steps 1..j and their fields are roots —
	// except under FullCollect, whose j = 0 puts every one of them inside
	// the collected region, where Steps.Collect skips them.
	copied := c.st.Collect(nil, []remset.Set{c.rs}, &c.stats.RemsetScanned, c.allowGrow)

	c.rs.Clear()
	// Situation 4 (§8.4): survivors that landed in the new steps 1..j must
	// re-enter the remembered set if they point into steps j+1..k. Under
	// the recommended policy steps 1..j are empty and this scans nothing.
	c.st.Renew(c.policy, c.allowGrow, 0, c.rememberFn)

	c.stats.WordsCopied += copied
	c.h.EndCollection(&c.stats, true, copied, c.st.LiveStepWords(), c.rs.Peak())
}

// FullCollect collects every step (j = 0 for one cycle), then restores the
// policy's choice. It reclaims all garbage including cross-step cycles.
func (c *Collector) FullCollect() {
	c.st.SetJ(0)
	c.Collect()
}
