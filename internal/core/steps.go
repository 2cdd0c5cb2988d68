// Package core implements the paper's primary contribution: the
// non-predictive generational garbage collector of Section 4.
//
// The collector divides heap storage into k steps of equal size. Step 1 is
// the youngest and step k the oldest; all allocation occurs in the
// highest-numbered step that has free space, so the steps fill from k down
// to 1. A tuning parameter j determines how many of the youngest steps are
// *not* collected: when every step is full, steps j+1 through k are
// collected as a single generation, survivors are placed in the
// highest-numbered new step with free space, and the steps are renamed —
// steps j+1..k become the new steps 1..k-j and the old steps 1..j become
// the new steps k-j+1..k. The collector never inspects object ages; it is
// "non-predictive" because no lifetime heuristic enters any decision.
package core

import (
	"fmt"

	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// Steps is the step machinery shared by the standalone non-predictive
// collector, the Larceny-style hybrid collector and the mark/sweep variant
// of internal/gc/npms: the ordered step list, the shadow spaces that copying
// collections evacuate into, the logical renaming, the allocation cursor
// and the j bookkeeping — and, for the two copying collectors, the
// allocation ladder (Alloc) and the tail of a collection (Renew).
type Steps struct {
	H         *heap.Heap
	StepWords int

	// prefix names the spaces (prefix-step-0, prefix-shadow-0, ...), and
	// reserve reserves each of them — a bump space for the copying
	// collectors, a one-block blocked space for npms — as an empty bump
	// space without memory, which it stays until the allocation cursor
	// reaches it or an evacuation targets it.
	prefix  string
	reserve func(name string, words int) *heap.Space

	// steps in logical order: index 0 is step 1 (youngest), index k-1 is
	// step k (oldest).
	steps   []*heap.Space
	shadows []*heap.Space
	// pos maps SpaceID to logical position, or -1 for non-step spaces.
	pos []int32

	j        int
	allocIdx int // highest position with free space, or -1 when all full

	// evac is the persistent Cheney engine, re-armed per collection with
	// the from-set steps j+1..k (plus the caller's extra space). remsetRoot
	// scans a remembered-set entry as roots, counting into scanned for the
	// collection in progress. The remaining slices are reusable scratch for
	// the target list and the renamings, so steady-state collections
	// allocate nothing.
	evac       *heap.Evacuator
	remsetRoot func(obj heap.Word)
	scanned    *uint64
	overflow   func(int) *heap.Space
	spares     []*heap.Space
	targetsBuf []*heap.Space
	stepsBuf   []*heap.Space
	shadowsBuf []*heap.Space
	keysBuf    []int
}

// NewSteps creates k steps (and k shadow spaces) of stepWords words each:
// bump spaces named np-step-i and np-shadow-i.
func NewSteps(h *heap.Heap, k, stepWords int) *Steps {
	return NewStepsOf(h, k, stepWords, "np", h.ReserveSpace)
}

// NewStepsOf is NewSteps over steps and shadows that reserve reserves,
// named after prefix. The k steps are created first, then the k shadows,
// and none gets its memory here: a step gets it when the cursor first
// reaches it (Bump stops there, and Alloc or the caller's own ladder backs
// it) or an evacuation targets it, and a shadow from the collection that
// first evacuates into it.
func NewStepsOf(h *heap.Heap, k, stepWords int, prefix string, reserve func(name string, words int) *heap.Space) *Steps {
	if k < 2 {
		panic("core: need at least 2 steps")
	}
	st := &Steps{H: h, StepWords: stepWords, prefix: prefix, reserve: reserve}
	for i := 0; i < k; i++ {
		st.steps = append(st.steps, st.space("step", i))
	}
	for i := 0; i < k; i++ {
		st.shadows = append(st.shadows, st.space("shadow", i))
	}
	st.evac = heap.NewEvacuator(h, nil)
	st.remsetRoot = func(obj heap.Word) {
		// An entry inside the collected region is scanned when it is
		// copied, and its old header may already hold a forwarding pointer.
		if st.evac.From().HasPtr(obj) {
			return
		}
		*st.scanned++
		heap.ScanObject(st.H.SpaceOf(obj), heap.PtrOff(obj), st.evac.Slot())
	}
	st.overflow = func(int) *heap.Space {
		sp := st.space("spill", len(st.H.Spaces))
		st.spares = append(st.spares, sp)
		return sp
	}
	st.rebuildPos()
	st.allocIdx = k - 1
	return st
}

// space makes the step-sized space prefix-kind-n, reserved.
func (st *Steps) space(kind string, n int) *heap.Space {
	return st.reserve(fmt.Sprintf("%s-%s-%d", st.prefix, kind, n), st.StepWords)
}

// K returns the number of steps.
func (st *Steps) K() int { return len(st.steps) }

// J returns the tuning parameter: steps 1..J are the uncollected young
// generation.
func (st *Steps) J() int { return st.j }

// SetJ sets the tuning parameter. Values are clamped to [0, k-1]: at least
// one step must be collectable.
func (st *Steps) SetJ(j int) {
	if j < 0 {
		j = 0
	}
	if max := st.K() - 1; j > max {
		j = max
	}
	st.j = j
}

// Step returns the space at logical position i (0-based: step i+1).
func (st *Steps) Step(i int) *heap.Space { return st.steps[i] }

// All returns the steps in logical order, youngest first. The slice is the
// machinery's own, valid until the next renaming; callers only read it.
func (st *Steps) All() []*heap.Space { return st.steps }

func (st *Steps) rebuildPos() {
	if n := len(st.H.Spaces); n > len(st.pos) {
		st.pos = append(st.pos, make([]int32, n-len(st.pos))...)
	}
	for i := range st.pos {
		st.pos[i] = -1
	}
	for i, s := range st.steps {
		st.pos[s.ID] = int32(i)
	}
}

// PosOf returns the logical position of the step that pointer w targets, or
// -1 if w does not point into an active step.
func (st *Steps) PosOf(w heap.Word) int {
	id := heap.PtrSpace(w)
	if int(id) >= len(st.pos) {
		return -1
	}
	return int(st.pos[id])
}

// InOld reports whether pointer w targets the collected generation
// (steps j+1 through k).
func (st *Steps) InOld(w heap.Word) bool { return st.PosOf(w) >= st.j }

// InYoung reports whether pointer w targets the uncollected young steps
// (steps 1 through j).
func (st *Steps) InYoung(w heap.Word) bool {
	p := st.PosOf(w)
	return p >= 0 && p < st.j
}

// FreeWords returns the free space across all steps.
func (st *Steps) FreeWords() int {
	n := 0
	for _, s := range st.steps {
		n += s.Free()
	}
	return n
}

// LiveStepWords returns the occupied words across all steps.
func (st *Steps) LiveStepWords() int {
	n := 0
	for _, s := range st.steps {
		n += s.Used()
	}
	return n
}

// EmptyYoungest returns the number of consecutive empty steps starting at
// step 1 — the paper's l, from which the recommended j is ⌊l/2⌋ (§8.1).
func (st *Steps) EmptyYoungest() int {
	l := 0
	for _, s := range st.steps {
		if s.Used() != 0 {
			break
		}
		l++
	}
	return l
}

// AllocIdx returns the allocation cursor: the position of the
// highest-numbered step not yet found full, or -1 when every step is.
func (st *Steps) AllocIdx() int { return st.allocIdx }

// SetAllocIdx moves the allocation cursor. Bump descends it by itself; a
// collector that carves steps some other way descends it with this, and
// puts it back on step k when a collection has refilled the free lists.
func (st *Steps) SetAllocIdx(i int) { st.allocIdx = i }

// RecomputeAllocIdx repositions the allocation cursor at the
// highest-numbered step with free space.
func (st *Steps) RecomputeAllocIdx() {
	for i := st.K() - 1; i >= 0; i-- {
		if st.steps[i].Free() > 0 {
			st.allocIdx = i
			return
		}
	}
	st.allocIdx = -1
}

// Bump allocates total words in the highest-numbered step that can hold
// them, descending as steps fill. It reports failure when every step is
// full, at which point the caller must collect — or when the cursor has
// reached a step that is still a reservation, which Bump refuses and does
// not descend past: the cursor stays on it, and Alloc gives it its memory.
func (st *Steps) Bump(total int) (*heap.Space, int, bool) {
	for st.allocIdx >= 0 {
		s := st.steps[st.allocIdx]
		if off, ok := s.Bump(total); ok {
			return s, off, true
		}
		if s.Reserved() {
			break
		}
		st.allocIdx--
	}
	return nil, 0, false
}

// Alloc is the allocation ladder over the steps, for an allocation of
// total words: an object larger than a step is a bug and panics; a step
// the cursor has reached without its memory gets it (Back), and the bump
// is tried again; when no step holds it, collect runs, and when none holds
// it after the collection either, a step is added if grow permits,
// otherwise the heap is out of memory. It returns the space and offset Bump
// found.
func (st *Steps) Alloc(total int, collect func(), grow bool) (*heap.Space, int) {
	if total > st.StepWords {
		panic(fmt.Sprintf("core: object of %d words exceeds the step size %d", total, st.StepWords))
	}
	collected := false
	for {
		if s, off, ok := st.Bump(total); ok {
			return s, off
		}
		switch {
		case st.allocIdx >= 0: // Bump stopped at a reservation
			st.steps[st.allocIdx].Back()
		case !collected:
			collect()
			collected = true
		case grow:
			st.AddSteps(1)
		default:
			panic("core: out of memory: steps full immediately after collection")
		}
	}
}

// Collect performs one non-predictive collection: steps j+1..k (plus the
// spaces in alsoFrom — e.g. the hybrid's nursery) are evacuated as a
// single generation into shadow spaces, and the steps are renamed per
// Section 4. The entries of sets are roots, each entry counted into
// *scanned, except entries inside the collected region. When the survivors
// (plus promoted storage) overflow the k-j primary target steps, spare
// shadows absorb them and the step count grows — permitted only with
// allowGrow, otherwise the collection panics as a heap overflow.
//
// On return the collected spaces have become the new shadows, steps have
// been renamed, and the allocation cursor is recomputed. The caller is
// responsible for choosing a new j and rebuilding remembered sets (Renew).
func (st *Steps) Collect(alsoFrom []*heap.Space, sets []remset.Set, scanned *uint64, allowGrow bool) uint64 {
	k, j := st.K(), st.j
	nNew := k - j
	primary := st.shadows[:nNew] // primary[i] becomes the new step at position i
	st.spares = append(st.spares[:0], st.shadows[nNew:]...)

	// Fill order: new step k-j first, descending — survivors sit directly
	// below the renamed old steps, as in Table 1.
	targets := st.targetsBuf[:0]
	for i := nNew - 1; i >= 0; i-- {
		targets = append(targets, primary[i])
	}
	targets = append(targets, st.spares...)
	st.targetsBuf = targets

	e := st.evac
	e.SetFrom(st.steps[j:]...)
	for _, s := range alsoFrom {
		e.From().AddSpace(s)
	}
	e.Begin(targets...)
	if allowGrow {
		e.Overflow = st.overflow
	} else {
		e.Overflow = nil
	}
	e.EvacuateRoots()
	st.scanned = scanned
	for _, rs := range sets {
		rs.ForEach(st.remsetRoot)
	}
	e.Drain()

	used := 0
	for _, sp := range st.spares {
		if sp.Used() > 0 {
			used++
		}
	}
	if used > 0 && !allowGrow {
		panic(fmt.Sprintf("core: non-predictive heap overflow: survivors spilled into %d spare steps", used))
	}

	// Rename: spare-spill steps are youngest, then the primary targets,
	// then the old steps 1..j as the new oldest steps. The renamed lists
	// build in spare buffers that swap with the live ones, so the old
	// backing arrays become next collection's scratch.
	newSteps := st.stepsBuf[:0]
	for i := used - 1; i >= 0; i-- {
		newSteps = append(newSteps, st.spares[i])
	}
	newSteps = append(newSteps, primary...)
	collected := st.steps[j:]
	newSteps = append(newSteps, st.steps[:j]...)

	newShadows := st.shadowsBuf[:0]
	for _, s := range collected {
		s.Reset()
		newShadows = append(newShadows, s)
	}
	newShadows = append(newShadows, st.spares[used:]...)
	for len(newShadows) < len(newSteps) {
		newShadows = append(newShadows, st.space("shadow", len(newShadows)))
	}

	st.steps, st.stepsBuf = newSteps, st.steps
	st.shadows, st.shadowsBuf = newShadows, st.shadows
	st.rebuildPos()
	st.RecomputeAllocIdx()
	if st.j > st.K()-1 {
		st.j = st.K() - 1
	}
	return e.WordsCopied
}

// Renew is the tail of a copying collection, once the caller has cleared
// its remembered sets. With grow, steps are added until a third of the step
// heap is free, and at least floor words, so the next collection does not
// follow at once; then j is chosen by policy, and the situation-4 rescan
// (ScanYoungForOldPointers) hands remember the young-step objects that
// point into steps j+1..k.
func (st *Steps) Renew(policy JPolicy, grow bool, floor int, remember func(obj heap.Word)) {
	if grow {
		for st.FreeWords() < st.K()*st.StepWords/3 || st.FreeWords() < floor {
			st.AddSteps(1)
		}
	}
	st.SetJ(policy.ChooseJ(st.EmptyYoungest(), st.K()))
	st.ScanYoungForOldPointers(remember)
}

// AddSteps inserts n empty steps at the young end, growing the heap without
// disturbing the renaming invariants (new empty young steps are exactly the
// post-collection state). They are reservations, like every step the
// cursor has yet to reach.
func (st *Steps) AddSteps(n int) {
	grown := make([]*heap.Space, 0, st.K()+n)
	for i := 0; i < n; i++ {
		grown = append(grown, st.space("step-grow", len(st.H.Spaces)))
		st.shadows = append(st.shadows, st.space("shadow-grow", len(st.H.Spaces)))
	}
	st.steps = append(grown, st.steps...)
	st.rebuildPos()
	st.RecomputeAllocIdx()
}

// RenameOldBy is the renaming of a collection that left its survivors in
// place (npms's mark/sweep): the collected steps j+1..k become the new steps
// 1..k-j in ascending order of key, steps with equal keys keeping their
// order, and the old steps 1..j become the new oldest steps.
func (st *Steps) RenameOldBy(key func(s *heap.Space) int) {
	renamed, keys := st.stepsBuf[:0], st.keysBuf[:0]
	for _, s := range st.steps[st.j:] {
		ks := key(s)
		renamed, keys = append(renamed, s), append(keys, ks)
		i := len(keys) - 1
		for ; i > 0 && keys[i-1] > ks; i-- {
			renamed[i], keys[i] = renamed[i-1], keys[i-1]
		}
		renamed[i], keys[i] = s, ks
	}
	renamed = append(renamed, st.steps[:st.j]...)
	st.steps, st.stepsBuf, st.keysBuf = renamed, st.steps, keys
	st.rebuildPos()
}

// ScanYoungForOldPointers calls remember on every object in steps 1..j that
// contains a pointer into steps j+1..k. This rebuilds the remembered set
// after a collection whose survivors landed in the young steps (the paper's
// situation 4) — a no-op under the recommended j policy, which keeps steps
// 1..j empty.
func (st *Steps) ScanYoungForOldPointers(remember func(obj heap.Word)) {
	inOld := st.InOld // bound once per walk; it does not escape, so not on the Go heap
	for _, s := range st.steps[:st.j] {
		for off := 0; off < s.Top; off += heap.ObjWords(s.Mem[off]) {
			if heap.PointsInto(s, off, inOld) {
				remember(heap.PtrWord(s.ID, off))
			}
		}
	}
}
