// Package young is the promoting collection of the paper's §8.4, written
// once: evacuate the ephemeral area with the remembered set as extra roots
// and promote the survivors. The generational, multigen and hybrid
// collectors differ in where promoted objects go and in the rule their
// remembered sets keep; what a tenuring nursery *is* — the space, its
// survivor shadow, the promotion threshold and collection trigger, the
// adaptive controller, the post-drain flip and the rescans that flip forces
// — is the same in all three and lives here.
//
// The allocation ladder is written here too, in Gen.AllocRaw, which each
// collector installs as its heap's allocator: an object over half the
// nursery goes to the old area; a full nursery runs a minor collection;
// then the nursery bumps; a tenuring nursery that still has no room runs a
// major collection; anything else is a bug and panics. The collector
// supplies the three rungs that differ as an Old.
//
// A collector's minor collection reads
//
//	young.Begin(targets...) → roots → its remembered-set roots → Drain
//	→ young.Flip → its remembered-set rule (young.Refilter, or its own)
//	→ young.Finish
//
// Under the default threshold of 1 there is no shadow: Begin arms a plain
// wholesale run, Flip resets the nursery, Refilter clears the set, and
// nothing in heap/tenure.go is read.
package young

import (
	"fmt"

	"rdgc/internal/heap"
	"rdgc/internal/policy"
	"rdgc/internal/remset"
)

// shadowAtOne arms the survivor shadow even at threshold 1 with no
// controller, so this package's tests can run the tenured arm of the step
// against the wholesale arm on the configuration where the two must agree.
// Nothing outside those tests sets it.
var shadowAtOne bool

// Old is what a nursery's allocation ladder needs of the collector around
// it: a minor collection before a total-word allocation that found the
// nursery full, a major collection that empties the nursery wholesale, and
// allocation of an object too large for the nursery in the old area.
type Old interface {
	Minor(total int)
	Major(total int)
	AllocOld(t heap.Type, payload, total int) heap.Word
}

// Gen is a nursery with age-based tenuring (heap/tenure.go). Collectors
// hold one by value and prepare it with Init; it answers heap.Tenurer for
// them and is their heap's allocator. A collection calls Begin, Flip, the
// set rule and Finish in exactly that order (the package comment has the
// whole sequence): Flip and Finish are separate calls only so that multigen
// can run its generation-indexed refilter between them, where the others
// call Refilter.
type Gen struct {
	h     *heap.Heap
	old   Old
	evac  *heap.Evacuator
	rs    remset.Set
	stats *heap.GCStats

	// space is the active nursery and shadow the survivor semispace it
	// flips against (nil under wholesale promotion). trigger is the
	// effective nursery size (the cap, unless the adaptive controller moves
	// it), carry the survivor words retained at the last flip, fresh the
	// words born since then as of the run in progress, and ctrl the
	// -gcadapt policy controller.
	space, shadow *heap.Space
	threshold     int
	trigger       int
	carry, fresh  int
	ctrl          *policy.Controller

	// Scan machinery for Refilter and Finish, built once in Init so a
	// steady-state collection allocates nothing.
	shadowBuf  []*heap.Space
	keep       []heap.Word
	keepEntry  func(obj heap.Word)
	scanRegion func(s *heap.Space, lo, hi int)
}

// Init prepares g as the nursery `space` of a collector on h that evacuates
// with e, records pointers into the nursery from outside it in rs, counts
// into stats and runs the ladder's other rungs as old. The heap's Config
// decides the policy: Tenure >= 2 or Adaptive creates the survivor shadow
// (named after the nursery); otherwise g stays wholesale and creates
// nothing.
func (g *Gen) Init(h *heap.Heap, space *heap.Space, e *heap.Evacuator, rs remset.Set, stats *heap.GCStats, old Old) {
	*g = Gen{h: h, old: old, evac: e, rs: rs, stats: stats, space: space}
	g.threshold = h.Config().Tenure
	g.trigger = space.Cap()
	if h.Config().Adaptive {
		g.ctrl = policy.New(policy.Config{})
	}
	if g.threshold <= 1 && g.ctrl == nil && !shadowAtOne {
		return
	}
	// Tenuring needs a survivor shadow for within-nursery evacuation; the
	// adaptive harness arms it even at threshold 1 so the survival counters
	// flow from the first collection.
	g.shadow = h.ReserveSpace(space.Name+"-to", space.Cap())
	g.shadowBuf = []*heap.Space{g.shadow}
	// The heap.PointsInto predicate of both scans: into the live nursery.
	inNursery := func(w heap.Word) bool { return heap.PtrSpace(w) == g.space.ID }
	g.keepEntry = func(obj heap.Word) {
		if heap.PointsInto(g.h.SpaceOf(obj), heap.PtrOff(obj), inNursery) {
			g.keep = append(g.keep, obj)
		}
	}
	g.scanRegion = func(s *heap.Space, lo, hi int) {
		for off := lo; off < hi; off += heap.ObjWords(s.Mem[off]) {
			if heap.PointsInto(s, off, inNursery) {
				g.rs.Remember(heap.PtrWord(s.ID, off))
			}
		}
	}
}

// Space returns the active nursery: where the mutator allocates, and the
// from-space of the next collection.
func (g *Gen) Space() *heap.Space { return g.space }

// AllocRaw implements heap.Allocator with the nursery's allocation ladder.
func (g *Gen) AllocRaw(t heap.Type, payload int) heap.Word {
	total := 1 + payload + g.h.ExtraWords()
	if total > g.space.Cap()/2 {
		return g.old.AllocOld(t, payload, total)
	}
	if g.full(total) {
		g.old.Minor(total)
	}
	off, ok := g.space.Bump(total)
	if !ok && g.shadow != nil {
		// A tenuring minor retains survivors and so can finish without
		// having made room; a major empties the nursery and guarantees
		// progress.
		g.old.Major(total)
		off, ok = g.space.Bump(total)
	}
	if !ok {
		panic(fmt.Sprintf("young: nursery cannot hold %d words", total))
	}
	return g.h.InitObject(g.space, off, t, payload)
}

// full reports whether a total-word allocation must collect first. With the
// trigger at the nursery cap (the wholesale default) this is a failed Bump;
// the adaptive controller may pull the trigger lower.
func (g *Gen) full(total int) bool { return g.space.Top+total > g.trigger }

// TenureThreshold implements heap.Tenurer.
func (g *Gen) TenureThreshold() int { return g.threshold }

// YoungSpaces implements heap.Tenurer: the active nursery, then the
// survivor shadow when tenuring is armed.
func (g *Gen) YoungSpaces() []*heap.Space {
	if g.shadow == nil {
		return []*heap.Space{g.space}
	}
	return []*heap.Space{g.space, g.shadow}
}

// Adaptive implements heap.Tenurer.
func (g *Gen) Adaptive() bool { return g.ctrl != nil }

// Begin arms the evacuator for a collection of the nursery alone whose
// promoted objects land in old, which the caller has checked can hold the
// worst case. With a shadow, survivors younger than the threshold are
// evacuated into it instead (their age incremented in the copy's header).
func (g *Gen) Begin(old ...*heap.Space) {
	g.evac.SetFrom(g.space)
	if g.shadow == nil {
		g.evac.Begin(old...)
		return
	}
	g.fresh = g.space.Top - g.carry
	g.evac.BeginTenured(g.threshold, g.shadowBuf, old...)
}

// Flip follows the drain: the evacuated nursery empties and, with a shadow,
// the two trade places, so that Space is the live nursery — holding the
// retained survivors — from here on.
func (g *Gen) Flip() {
	g.space.Reset()
	if g.shadow == nil {
		return
	}
	g.space, g.shadow = g.shadow, g.space
	g.shadowBuf[0] = g.shadow
	g.carry = g.space.Top
}

// Refilter drops from the remembered set every object that no longer points
// into the (post-Flip) nursery. Entries lie outside the nursery and do not
// move in a minor collection, so the ones kept keep their addresses. A
// wholesale promotion emptied the nursery: no such pointer remains.
func (g *Gen) Refilter() {
	if g.shadow == nil {
		g.rs.Clear()
		return
	}
	g.keep = g.keep[:0]
	g.rs.ForEach(g.keepEntry)
	g.rs.Clear()
	for _, w := range g.keep {
		g.rs.Remember(w)
	}
}

// Finish closes the collection after Flip and the collector's remembered-
// set rule. The objects this run promoted are scanned: any that reference a
// retained survivor are pointers into the nursery the barrier never saw
// (both ends moved during the collection), so they enter the remembered set
// here. Then the run's copied, promoted and tenured words are counted and
// the adaptive controller consulted; the collector ends the collection
// itself, through heap.EndCollection, with the evacuator's WordsCopied as
// its pause.
func (g *Gen) Finish() {
	e, st := g.evac, g.stats
	st.WordsCopied += e.WordsCopied
	if g.shadow == nil {
		st.WordsPromoted += e.WordsCopied
		return
	}
	e.CopiedRegions(g.scanRegion)
	st.WordsPromoted += e.WordsPromoted
	st.WordsTenured += e.WordsRetained
	st.TenureThreshold = g.threshold
	if g.ctrl != nil {
		g.threshold, g.trigger = g.ctrl.Adapt(e, g.fresh, g.space, st)
	}
}

// Emptied records that a collection outside this step (a major, a wider
// multigen window) promoted the whole nursery: no survivors are carried.
func (g *Gen) Emptied() { g.carry = 0 }

// AfterMajor is Emptied for a collection of the old area, whose copied
// words refresh the controller's estimate of what a promoted word costs.
func (g *Gen) AfterMajor(copied uint64) {
	g.Emptied()
	if g.ctrl != nil {
		g.ctrl.ObserveMajor(copied)
	}
}
