package npms

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

// Until its steps became one-block heap.BlockTable spaces this package
// carried its own free-list substrate: free heads indexed by SpaceID, a
// first-fit carve, a coalescing sweep and the formatting of a fresh step and
// of a compaction target. That code is kept here, word for word apart from
// the receiver and the carve's deferred-sweep check (the mirror is swept when
// the mark finishes), as the reference the shared substrate is held to: the
// tests below run the collector with a mirror of every step beside it, apply
// each allocation, sweep and compaction to the mirror through the reference,
// and require the step images, free lists and swept-word totals to stay
// equal.

const noBlock = heap.NoFreeBlock

// reference is the old substrate's state.
type reference struct {
	freeHead []int // SpaceID -> first free block, or noBlock
}

// initFree makes the whole space one free block with Top at capacity, so
// the space stays linearly parsable under free-list allocation.
func (c *reference) initFree(s *heap.Space) {
	s.Top = s.Cap()
	s.Mem[0] = heap.HeaderWord(heap.TFree, s.Cap()-1)
	heap.SetFreeNext(s, 0, noBlock)
	c.freeHead[s.ID] = 0
}

// tryAllocIn carves n words first-fit out of s's free list, with the block
// links and split rule of the plain mark/sweep collector's
// heap.Space.AllocFromBlock.
func (c *reference) tryAllocIn(s *heap.Space, n int) (int, bool) {
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

// sweep rebuilds one step's free list with coalescing, clearing marks.
// It returns the words examined.
func (c *reference) sweep(s *heap.Space) int {
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

// freeTail is the end of the old compact: a bump-filled target switches to
// free-list form, one block from the bump pointer to the end.
func (c *reference) freeTail(t *heap.Space) {
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

// lockstep runs a collector with the reference beside it. It is the heap's
// allocator (every request goes to the collector, then the same carve is
// asked of the reference) and its after-collection hook (every sweep and
// compaction is redone on the mirror).
//
// The reference owns the structure of a mirror — headers, free-list links,
// the words a dead object leaves behind — and nothing else: payloads of
// allocated objects are the mutator's, and are copied across before a
// comparison or a sweep.
//
// The first divergence is reported and ends the comparing (the run itself
// goes on to its end: the checks fire inside the allocator, under the
// mutator's open scopes, where a Fatalf's unwinding would panic).
type lockstep struct {
	t        *testing.T
	h        *heap.Heap
	c        *Collector
	ref      reference
	mirror   []*heap.Space // SpaceID -> the reference's copy of the space
	isStep   []bool        // SpaceID -> a step (not a shadow) as of the last collection
	order    []*heap.Space // the steps, youngest first, as of the last collection
	swept    uint64        // words the reference's sweeps examined
	diverged bool
}

func (l *lockstep) failf(format string, args ...any) {
	l.t.Helper()
	if !l.diverged {
		l.t.Errorf("collection %d: "+format, append([]any{l.c.stats.Collections}, args...)...)
	}
	l.diverged = true
}

func newLockstep(t *testing.T, h *heap.Heap, c *Collector) *lockstep {
	l := &lockstep{t: t, h: h, c: c}
	mh := heap.New()
	l.ref.freeHead = make([]int, len(h.Spaces))
	l.isStep = make([]bool, len(h.Spaces))
	for _, s := range h.Spaces {
		l.mirror = append(l.mirror, mh.NewSpace(s.Name, s.Cap()))
		l.ref.freeHead[s.ID] = noBlock
	}
	for _, s := range c.st.All() {
		l.ref.initFree(l.mirror[s.ID])
		l.isStep[s.ID] = true
	}
	l.order = slices.Clone(c.st.All())
	l.compareSwept()
	h.SetAllocator(l)
	h.SetAfterGC(l.afterGC)
	return l
}

// AllocRaw implements heap.Allocator.
func (l *lockstep) AllocRaw(t heap.Type, payload int) heap.Word {
	pending := l.pendingSteps()
	w := l.c.AllocRaw(t, payload)
	if l.diverged {
		return w
	}
	s, off := l.h.SpaceOf(w), heap.PtrOff(w)
	n := heap.ObjWords(s.Mem[off])
	m := l.mirror[s.ID]
	got, ok := l.ref.tryAllocIn(m, n)
	if !ok || got != off {
		l.failf("%d words placed at %d of %v; the reference first-fit says %d (found %v)", n, off, s, got, ok)
		return w
	}
	m.Mem[off] = s.Mem[off] // the header is InitObject's
	l.compare(s)
	// Steps whose deferred sweep ran inside the call (the mirror was swept
	// when the mark finished).
	for _, p := range pending {
		if p != s && !p.Blocks.UnsweptAt(0) {
			l.compare(p)
		}
	}
	l.compareSweptWords()
	return w
}

func (l *lockstep) pendingSteps() []*heap.Space {
	var out []*heap.Space
	for _, s := range l.c.st.All() {
		if s.Blocks.UnsweptAt(0) {
			out = append(out, s)
		}
	}
	return out
}

// afterGC redoes the collection that just ended on the mirrors.
func (l *lockstep) afterGC() {
	if l.diverged {
		return
	}
	c := l.c
	collected := c.renamed()
	switch {
	case c.phase == npSweeping:
		// Incremental termination: the collected steps are as the mark left
		// them, marks and all, each awaiting its deferred sweep. The
		// reference sweeps now; each step is compared once its own sweep
		// has run.
		markedWords := func(s *heap.Space) (marked int) {
			heap.WalkSpace(s, func(off int, hdr heap.Word) bool {
				if heap.HeaderType(hdr) != heap.TFree && s.MarkedAt(off) {
					marked += heap.ObjWords(hdr)
				}
				return true
			})
			return marked
		}
		l.checkRenamed(markedWords)
		// Live would count the dead storage the pending sweeps have yet to
		// free: the survivors of a collected step are its marked objects.
		live := 0
		for p, s := range c.st.All() {
			if p < len(collected) {
				live += markedWords(s)
			} else {
				live += heap.LiveWords(s)
			}
		}
		l.checkNotedLive(live)
		for _, s := range collected {
			m := l.mirror[s.ID]
			l.syncPayloads(s, m)
			heap.WalkSpace(m, func(off int, hdr heap.Word) bool {
				if heap.HeaderType(hdr) != heap.TFree && s.MarkedAt(off) {
					m.SetMarkAt(off)
				}
				return true
			})
			l.swept += uint64(l.ref.sweep(m))
		}
	case !l.isStep[c.st.Step(0).ID]:
		// Compaction: the collected steps were evacuated into shadows, which
		// are the new youngest steps, filled from the highest-numbered one
		// down. The evacuated objects are the engine's; the reference
		// formats what lies behind them.
		l.checkNotedLive(c.Live())
		for p, s := range collected {
			if l.isStep[s.ID] {
				l.failf("compaction left %v, a collected step, at position %d", s, p)
			}
			if p > 0 && heap.LiveWords(s) == 0 && heap.LiveWords(collected[p-1]) > 0 {
				l.failf("compaction filled step %d and left step %d, above it, empty", p, p+1)
			}
		}
		if !slices.Equal(c.st.All()[len(collected):], l.order[:c.st.J()]) {
			l.failf("compaction did not keep steps 1..j, in order, as the new oldest steps")
		}
		for _, s := range collected {
			m := l.mirror[s.ID]
			used := heap.LiveWords(s)
			copy(m.Mem[:used], s.Mem[:used])
			m.Top = used
			l.ref.freeTail(m)
		}
		clear(l.isStep)
		for _, s := range c.st.All() {
			l.isStep[s.ID] = true
		}
		for _, s := range l.h.Spaces {
			if l.isStep[s.ID] {
				continue // every other space of this heap is a shadow
			}
			m := l.mirror[s.ID]
			copy(m.Mem, s.Mem) // forwarding pointers and all: scratch from here on
			m.Reset()
			l.ref.freeHead[s.ID] = noBlock
		}
	default:
		// Stop-the-world mark/sweep: the marks are gone, but the survivors
		// are the objects the swept steps still hold.
		l.checkRenamed(heap.LiveWords)
		l.checkNotedLive(c.Live())
		for _, s := range collected {
			m := l.mirror[s.ID]
			l.syncPayloads(s, m)
			heap.WalkSpace(s, func(off int, hdr heap.Word) bool {
				if heap.HeaderType(hdr) != heap.TFree {
					m.SetMarkAt(off)
				}
				return true
			})
			l.swept += uint64(l.ref.sweep(m))
		}
	}
	l.order = slices.Clone(c.st.All())
	l.compareSwept()
	l.compareSweptWords()
	if err := heap.VerifyCollector(l.h, c); err != nil {
		l.failf("verify: %v", err)
	}
}

// checkNotedLive holds the occupancy a collection noted in GCStats to the
// walk over every step: a collection sums the words it traced and walks only
// the steps it did not. PeakLive is a running maximum, so it is zeroed here
// and reads, after the next collection, as what that collection noted.
func (l *lockstep) checkNotedLive(walked int) {
	if noted := l.c.stats.PeakLive; noted != walked {
		l.failf("the collection noted %d live words; the steps hold %d", noted, walked)
	}
	l.c.stats.PeakLive = 0
}

// checkRenamed holds a mark/sweep collection's renaming to its definition,
// written the way this package wrote it before the step machine was shared:
// the collected steps j+1..k lead, stably sorted by ascending surviving
// occupancy, and the old steps 1..j follow.
func (l *lockstep) checkRenamed(occupancy func(s *heap.Space) int) {
	j := l.c.st.J()
	want := slices.Clone(l.order[j:])
	sort.SliceStable(want, func(a, b int) bool { return occupancy(want[a]) < occupancy(want[b]) })
	want = append(want, l.order[:j]...)
	if !slices.Equal(l.c.st.All(), want) {
		names := func(steps []*heap.Space) (out []string) {
			for _, s := range steps {
				out = append(out, s.Name)
			}
			return out
		}
		l.failf("steps renamed to %v, want %v", names(l.c.st.All()), names(want))
	}
}

// syncPayloads copies the payload of every allocated object of the mirror
// from the real step.
func (l *lockstep) syncPayloads(s, m *heap.Space) {
	heap.WalkSpace(m, func(off int, hdr heap.Word) bool {
		if heap.HeaderType(hdr) != heap.TFree {
			copy(m.Mem[off+1:off+heap.ObjWords(hdr)], s.Mem[off+1:])
		}
		return true
	})
}

// compare requires a swept step and its mirror to be the same words behind
// the same free-list head (the links are words of the image). A step still
// reserved stands for a fresh step: its Top and image are the ones a step
// formatted with its memory has, and its list starts where that step's does.
func (l *lockstep) compare(s *heap.Space) {
	l.t.Helper()
	if l.diverged {
		return
	}
	m := l.mirror[s.ID]
	l.syncPayloads(s, m)
	top, img, head := s.Top, s.Mem, int(s.Blocks.FreeHead[0])
	if s.Reserved() {
		fresh := heap.New().NewBlockedSpaceSpan(s.Name, s.Cap(), s.Cap())
		top, img, head = fresh.Top, fresh.Mem, int(fresh.Blocks.FreeHead[0])
	}
	if top != m.Top {
		l.failf("%v has Top %d, the reference %d", s, top, m.Top)
	}
	for i := range img {
		if img[i] != m.Mem[i] {
			l.failf("%v differs from the reference's image at word %d: %#x, reference %#x", s, i, uint64(img[i]), uint64(m.Mem[i]))
			break
		}
	}
	if want := l.ref.freeHead[s.ID]; head != want {
		l.failf("free list of %v starts at %d, the reference's at %d", s, head, want)
	}
}

// compareSwept compares every step whose sweep is not pending.
func (l *lockstep) compareSwept() {
	l.t.Helper()
	for _, s := range l.c.st.All() {
		if !s.Blocks.UnsweptAt(0) {
			l.compare(s)
		}
	}
}

// compareSweptWords: once no sweep is pending, the collector has examined
// exactly the words the reference has.
func (l *lockstep) compareSweptWords() {
	l.t.Helper()
	if l.c.sweeper.LazyPending() == 0 && l.c.stats.WordsSwept != l.swept {
		l.failf("WordsSwept = %d, the reference swept %d", l.c.stats.WordsSwept, l.swept)
	}
}

// finish flushes any deferred sweeps and compares everything once more.
func (l *lockstep) finish() {
	l.t.Helper()
	l.c.stwReset()
	l.compareSwept()
	l.compareSweptWords()
}

// substrateModes are the configurations the differential runs under: the two
// collection modes (incremental also at a 64-word slice, so slices, on-demand
// sweeps and the paced sweep interleave as finely as they can), each with
// compaction at its default period, off, and at every second collection.
func substrateModes(t *testing.T, run func(t *testing.T, h *heap.Heap, opts ...Option)) {
	modes := []struct {
		name string
		cfg  heap.Config
	}{
		{"stop-the-world", heap.Config{}},
		{"incremental", heap.Config{Incremental: true}},
		{"incremental-slice64", heap.Config{Incremental: true, SliceBudget: 64}},
	}
	compaction := []struct {
		name string
		opts []Option
	}{
		{"compact8", nil},
		{"nocompact", []Option{WithCompactEvery(0)}},
		{"compact2", []Option{WithCompactEvery(2)}},
	}
	for _, mode := range modes {
		for _, cp := range compaction {
			t.Run(mode.name+"/"+cp.name, func(t *testing.T) {
				h := heap.New(heap.WithConfig(mode.cfg))
				run(t, h, cp.opts...)
			})
		}
	}
}

// TestSubstrateMatchesReferenceRandomized: the shared stress scenario, then
// a randomized mix of request sizes (zero-slot vectors, whose one word fits
// any hole, up to vectors of a twelfth of a step), retention into a rooted
// table, drops and explicit collections.
func TestSubstrateMatchesReferenceRandomized(t *testing.T) {
	substrateModes(t, func(t *testing.T, h *heap.Heap, opts ...Option) {
		const (
			stepWords = 1531 // odd on purpose: a step owes nothing to heap.BlockWords
			slots     = 400
			ops       = 6000
		)
		c := New(h, 8, stepWords, opts...)
		l := newLockstep(t, h, c)
		gctest.StressCollector(t, h, c)
		table := h.Global(h.MakeVector(slots, h.Null()))
		rng := rand.New(rand.NewSource(19))
		for op := 0; op < ops; op++ {
			if rng.Intn(500) == 0 {
				c.Collect()
				continue
			}
			n := rng.Intn(10)
			if rng.Intn(20) == 0 {
				n = 10 + rng.Intn(stepWords/12)
			}
			s := h.Scope()
			v := h.MakeVector(n, h.Null())
			if rng.Intn(3) == 0 {
				h.VectorSet(table, rng.Intn(slots), v)
			}
			s.Close()
		}
		l.finish()
		if c.stats.Collections < 10 || c.stats.WordsSwept == 0 {
			t.Errorf("%d collections, %d words swept: the differential saw too little", c.stats.Collections, c.stats.WordsSwept)
		}
		if len(opts) == 0 && c.stats.WordsCopied == 0 {
			t.Error("no compaction ran")
		}
		t.Logf("%d collections, %d swept, %d copied, %d pauses", c.stats.Collections, c.stats.WordsSwept, c.stats.WordsCopied, c.stats.Pauses.Count)
	})
}

// TestSubstrateMatchesReferenceFragmented walks the corners of the carve and
// of the coalescing sweep on a heap small enough to state them: steps of
// pairs filled to the last word, every other pair dead (three-word holes,
// each between two survivors), two-word boxes that leave one-word
// remainders, the sweep that later merges a dead box, its remainder and the
// dead pairs around them, and a request of exactly the largest run.
func TestSubstrateMatchesReferenceFragmented(t *testing.T) {
	substrateModes(t, func(t *testing.T, h *heap.Heap, opts ...Option) {
		const stepWords = 96 // 32 pairs
		c := New(h, 4, stepWords, opts...)
		l := newLockstep(t, h, c)

		// Three rooted lists take every other pair in turn; the pairs between
		// them are garbage. Filling until the first collection has run passes
		// through steps with no free word left.
		lists := [3]heap.Ref{h.Global(h.Null()), h.Global(h.Null()), h.Global(h.Null())}
		push := func(i int, v heap.Ref) {
			p := h.Cons(v, lists[i%3])
			h.Set(lists[i%3], h.Get(p))
		}
		sawFull := false
		for i := 0; c.stats.Collections == 0; i++ {
			s := h.Scope()
			h.Cons(h.Fix(int64(i)), h.Null())
			push(i, h.Fix(int64(i)))
			s.Close()
			for _, st := range c.st.All() {
				sawFull = sawFull || st.Blocks.FreeHead[0] == noBlock && heap.LiveWords(st) == stepWords
			}
		}
		if !sawFull {
			t.Error("no step was ever full to the last word")
		}
		c.Collect()
		c.Collect() // the steps have rotated: every step has been swept

		// Boxes into the three-word holes leave one-word remainders; the
		// pairs that keep them alive fit their holes exactly.
		boxes := h.Global(h.Null())
		for i := 0; i < 12; i++ {
			s := h.Scope()
			p := h.Cons(h.Box(h.Fix(int64(i))), boxes)
			h.Set(boxes, h.Get(p))
			s.Close()
		}
		// Drop the boxes and a third of the pairs: dead boxes, their
		// remainders and dead pairs now lie side by side.
		h.Set(boxes, heap.NullWord)
		h.Set(lists[0], heap.NullWord)
		c.Collect()
		c.Collect()

		// A request of exactly the largest run any step holds.
		largest := 0
		for _, st := range c.st.All() {
			for off := int(st.Blocks.FreeHead[0]); off != noBlock; off = heap.FreeNext(st, off) {
				largest = max(largest, heap.ObjWords(st.Mem[off]))
			}
		}
		if largest < 6 {
			t.Fatalf("largest free run is %d words; the fixture wants merged runs", largest)
		}
		before := c.stats.Collections
		s := h.Scope()
		h.MakeVector(largest-1-h.ExtraWords(), h.Null())
		s.Close()
		if c.stats.Collections != before {
			t.Errorf("a request of the largest run (%d words) did not fit without collecting", largest)
		}
		l.finish()
	})
}

// TestVerifierSeesStepFreeLists: a step's free list is a block table like any
// other, so corrupting one behind the collector's back is the verifier's
// ErrBadBlockTable — whichever step it is and whether the damage is to the
// head, a link or the run bound.
func TestVerifierSeesStepFreeLists(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(s *heap.Space)
	}{
		{"head outside the step", func(s *heap.Space) { s.Blocks.FreeHead[0] = int32(s.Cap()) }},
		{"run dropped from the list", func(s *heap.Space) { s.Blocks.FreeHead[0] = heap.NoFreeBlock }},
		{"MaxRun too small", func(s *heap.Space) { s.Blocks.MaxRun[0] = 1 }},
		{"link to itself", func(s *heap.Space) { heap.SetFreeNext(s, int(s.Blocks.FreeHead[0]), int(s.Blocks.FreeHead[0])) }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			h := incrHeap(false)
			c := New(h, 4, 1024, WithCompactEvery(0))
			s := h.Scope()
			defer s.Close()
			_ = gctest.BuildList(h, 100)
			gctest.Churn(h, 3000)
			if c.stats.Collections == 0 {
				t.Fatal("no collection ran")
			}
			if err := heap.VerifyCollector(h, c); err != nil {
				t.Fatalf("healthy heap rejected: %v", err)
			}
			var victim *heap.Space
			for _, st := range c.st.All() {
				if st.Blocks.FreeHead[0] != heap.NoFreeBlock {
					victim = st
				}
			}
			if victim == nil {
				t.Fatal("no step has a free run to corrupt")
			}
			tc.corrupt(victim)
			if err := heap.VerifyCollector(h, c); !errors.Is(err, heap.ErrBadBlockTable) {
				t.Fatalf("verifier said %v, want %v", err, heap.ErrBadBlockTable)
			}
		})
	}
}
