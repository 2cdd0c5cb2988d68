// Package semispace implements the non-generational two-space stop-and-copy
// collector (Fenichel–Yochelson/Cheney) that the paper uses as Larceny's
// baseline "stop-and-copy" collector in Table 3.
package semispace

import (
	"fmt"

	"rdgc/internal/heap"
)

// Collector is a classic semispace collector: allocation bumps through the
// from-space; when it fills, everything live is copied to the to-space and
// the spaces flip.
type Collector struct {
	h     *heap.Heap
	from  *heap.Space
	to    *heap.Space
	stats heap.GCStats

	// evac is the persistent Cheney engine, re-armed per collection so
	// steady-state collections allocate nothing.
	evac *heap.Evacuator

	// expand > 0 enables growth: after a collection that leaves the heap
	// more than 1/expand full, both semispaces grow to live*expand words.
	expand float64
}

// Option configures the collector.
type Option func(*Collector)

// WithExpansion lets the semispaces grow so that the inverse load factor
// (semispace size / live words) stays at least invLoad after each
// collection. Larceny's stop-and-copy collector sizes itself this way.
func WithExpansion(invLoad float64) Option {
	if invLoad <= 1 {
		panic("semispace: inverse load factor must exceed 1")
	}
	return func(c *Collector) { c.expand = invLoad }
}

// New creates a semispace collector with the given semispace size in words
// and installs it as h's allocator.
func New(h *heap.Heap, semiWords int, opts ...Option) *Collector {
	c := &Collector{
		h:    h,
		from: h.NewSpace("semispace-A", semiWords),
		to:   h.ReserveSpace("semispace-B", semiWords),
	}
	c.evac = heap.NewEvacuator(h, nil)
	for _, o := range opts {
		o(c)
	}
	h.SetAllocator(c)
	return c
}

// Name implements heap.Collector.
func (c *Collector) Name() string { return "stop-and-copy" }

// GCStats implements heap.Collector.
func (c *Collector) GCStats() *heap.GCStats { return &c.stats }

// Live returns the words in use in the active semispace.
func (c *Collector) Live() int { return c.from.Used() }

// VerifySpec implements heap.Verifiable: between collections only the
// active semispace holds objects; the to-space is scratch.
func (c *Collector) VerifySpec() heap.VerifySpec {
	return heap.VerifySpec{Live: []*heap.Space{c.from}}
}

// SemiWords returns the current semispace capacity.
func (c *Collector) SemiWords() int { return c.from.Cap() }

// AllocRaw implements heap.Allocator.
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word {
	total := 1 + payload + c.h.ExtraWords()
	off, ok := c.from.Bump(total)
	if !ok {
		c.collect(total)
		off, ok = c.from.Bump(total)
		if !ok {
			panic(fmt.Sprintf("semispace: out of memory: need %d words, %d free after gc",
				total, c.from.Free()))
		}
	}
	return c.h.InitObject(c.from, off, t, payload)
}

// Collect implements heap.Collector.
func (c *Collector) Collect() { c.collect(0) }

func (c *Collector) collect(need int) {
	e := c.evac
	e.SetFrom(c.from)
	e.Begin(c.to)
	e.Run()
	c.from.Reset()
	c.from, c.to = c.to, c.from

	copied := e.WordsCopied
	c.stats.WordsCopied += copied

	if c.expand > 0 {
		live := c.from.Used()
		want := int(float64(live) * c.expand)
		if need+live > want {
			want = need + live
		}
		if want > c.from.Cap() {
			// Grow the empty to-space, copy into it, then grow the other.
			c.to.Resize(want)
			e.SetFrom(c.from)
			e.Begin(c.to)
			e.Run()
			c.from.Reset()
			c.from.Resize(want)
			c.from, c.to = c.to, c.from
		}
	}
	c.h.EndCollection(&c.stats, true, copied, c.from.Used(), 0)
}
