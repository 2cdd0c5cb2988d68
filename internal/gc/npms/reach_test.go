package npms_test

import (
	"fmt"
	"testing"

	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/gc/npms"
	"rdgc/internal/heap"
)

// TestSweepCountsUnreachedSteps: the steps are reservations until the
// allocation cursor reaches them, and a collection that sweeps steps the
// cursor never reached must count them as the untouched steps they stand
// for — their whole capacity, not their Top of 0 — and leave them
// reserved. Counting none of them kept table3-grid's digest but moved
// serve-grid's and gc-stress's: 16 steps of 73728 words under a
// 50 000-pair list, whose collection sweeps the 12 steps j+1..k, must
// report 884 736 words swept, not 221 184 for the three the list reached.
//
// The run is held to the same run on a collector whose every step was given
// its memory and formatted as one free run right after New, as every step
// once was at construction: equal GCStats (every
// field), Live and footprint after the explicit collection and again after
// the collections that allocation then triggers — in the incremental rows
// of gcfuzz.Modes those are cycles whose lazy sweeps reach steps still
// reserved — and a clean heap.Check. The same workload at 1/32 the scale,
// through nine collections (the eighth a compaction, stop-the-world), is
// held to it too, and runs through two beside the reference substrate of
// reference_test.go, which zeroes PeakLive as it checks each collection
// (and compares every step at every allocation, so a longer run would cost
// tens of seconds under the race detector).
func TestSweepCountsUnreachedSteps(t *testing.T) {
	for _, m := range gcfuzz.Modes(heap.Config{}, nil) {
		if m.Config != (heap.Config{}) && !m.Config.Incremental {
			continue
		}
		t.Run(m.Name, func(t *testing.T) {
			for _, sc := range []struct{ stepWords, pairs, collections int }{
				{73728, 50000, 3},
				{73728 / 32, 50000/32 + 1, 9},
			} {
				reserved := sweepRun(t, m.Config, sc.stepWords, sc.pairs, sc.collections, reserve)
				if backed := sweepRun(t, m.Config, sc.stepWords, sc.pairs, sc.collections, backAll); reserved != backed {
					t.Errorf("%d-word steps reserved until reached:\n  %s\nevery step given memory at construction:\n  %s", sc.stepWords, reserved, backed)
				}
			}
			sweepRun(t, m.Config, 73728/32, 50000/32+1, 2, lockstep)
		})
	}
}

// How sweepRun builds its steps: reserved, as npms.New leaves them; each
// given its memory and formatted at once; or reserved, and beside the
// lock-step reference.
type build string

const (
	reserve  build = "reserved"
	backAll  build = "backed"
	lockstep build = "lock-step"
)

// sweepRun builds npms at 16 steps of stepWords on a heap of cfg, roots a
// list of the given number of pairs, collects, and then churns garbage
// until collections have run. It returns what the run measured after the
// explicit collection and at the end, printed.
func sweepRun(t *testing.T, cfg heap.Config, stepWords, pairs, collections int, b build) string {
	t.Helper()
	h := heap.New(heap.WithConfig(cfg))
	c := npms.New(h, 16, stepWords)
	var ref *npms.Lockstep
	switch b {
	case backAll:
		for _, s := range npms.StepsOf(c).All() {
			s.Back()
			s.FreeFrom(0)
		}
	case lockstep:
		ref = npms.NewLockstep(t, h, c)
	}
	measure := func() string {
		if err := heap.Check(h); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		return fmt.Sprintf("%+v live=%d footprint=%d", *c.GCStats(), c.Live(), h.FootprintWords())
	}

	list := h.Global(h.Null())
	for i := 0; i < pairs; i++ {
		s := h.Scope()
		p := h.Cons(h.Fix(int64(i)), list)
		h.Set(list, h.Get(p))
		s.Close()
	}
	c.Collect()
	if want := uint64(12 * stepWords); c.GCStats().WordsSwept != want {
		t.Errorf("%s: the collection swept %d words; steps j+1..k hold %d", b, c.GCStats().WordsSwept, want)
	}
	first := measure()
	for i := 0; c.GCStats().Collections < collections; i++ {
		s := h.Scope()
		h.Cons(h.Fix(int64(i)), h.Null())
		s.Close()
	}
	if collections > 8 && !cfg.Incremental && c.GCStats().WordsCopied == 0 {
		t.Errorf("%s: no compaction in %d collections", b, collections)
	}
	last := measure()
	if ref != nil {
		ref.Finish()
	}
	return first + "\n  then " + last
}
