// The tests drive the step through the three collectors that share it, so
// they live outside the package (the collectors import it); export_test.go
// is the one seam they reach in.
package young_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/hybrid"
	"rdgc/internal/gc/multigen"
	"rdgc/internal/gc/young"
	"rdgc/internal/heap"
)

// collector is what the tests need of a user of the step.
type collector interface {
	heap.Collector
	heap.Allocator
	heap.Barrier
	heap.Tenurer
}

// users builds each collector that holds a young.Gen, sized so the
// workloads below neither exhaust nor grow them: a grown step heap would
// number its new spaces after the survivor shadow on one arm only.
var users = []struct {
	name string
	mk   func(h *heap.Heap) collector
	// nurseryRemset reports the size of the remembered set that records
	// pointers into the nursery, and whether a nursery-alone collection
	// that promotes everything must leave it empty (multigen's set also
	// holds pointers between its older generations).
	nurseryRemset func(c collector) (n int, emptyAfterMinor bool)
}{
	{"generational", func(h *heap.Heap) collector {
		return generational.New(h, 1024, 16384, generational.WithExpansion(2))
	}, func(c collector) (int, bool) {
		return c.(*generational.Collector).RemsetLen(), true
	}},
	{"multigen", func(h *heap.Heap) collector {
		return multigen.New(h, []int{1024, 2048, 16384}, multigen.WithExpansion(2))
	}, func(c collector) (int, bool) {
		return c.(*multigen.Collector).RemsetLen(), false
	}},
	{"hybrid", func(h *heap.Heap) collector {
		return hybrid.New(h, 512, 8, 4096)
	}, func(c collector) (int, bool) {
		a, _ := c.(*hybrid.Collector).RemsetLens()
		return a, true
	}},
}

// armRun is one arm of the differential: what every collection left behind,
// and the final state.
type armRun struct {
	perGC  []gcSnapshot
	stats  heap.Stats
	spaces map[string][]heap.Word
}

type gcSnapshot struct {
	gc     heap.GCStats
	remset int
}

// runArm plays gctest.RandomOps' workload (same operation mix, same forced
// collections) on a fresh sequential heap whose nursery is wholesale, or —
// shadow set — runs the tenured arm at threshold 1, recording the collector's
// counters and nursery remembered set after every collection.
func runArm(t *testing.T, u int, shadow, census bool, seed int64, nOps int) armRun {
	t.Helper()
	opts := []heap.Option{heap.WithConfig(heap.Config{})}
	if census {
		opts = append(opts, heap.WithCensus())
	}
	h := heap.New(opts...)
	young.ShadowAtOne(shadow)
	c := users[u].mk(h)
	young.ShadowAtOne(false)
	if armed := len(c.YoungSpaces()) == 2; armed != shadow {
		t.Fatalf("shadow=%v built %d young spaces", shadow, len(c.YoungSpaces()))
	}

	var run armRun
	var gcErr error
	majors := 0
	h.SetAfterGC(func() {
		gc := *c.GCStats()
		n, emptyAfterMinor := users[u].nurseryRemset(c)
		if minor := gc.MajorCollections == majors; minor && emptyAfterMinor && n != 0 && gcErr == nil {
			gcErr = fmt.Errorf("collection %d promoted the whole nursery and left %d entries in its remembered set", gc.Collections, n)
		}
		majors = gc.MajorCollections
		if gcErr == nil {
			gcErr = heap.VerifyCollector(h, c)
		}
		run.perGC = append(run.perGC, gcSnapshot{gc, n})
	})
	defer h.SetAfterGC(nil)

	src := rand.New(rand.NewSource(seed))
	m := gctest.NewMutator(h, src)
	for op := 0; op < nOps; op++ {
		m.Op(src.Intn(10))
		if op%(nOps/4+1) == nOps/4 {
			c.Collect()
		}
		if gcErr != nil {
			t.Fatalf("op %d: %v", op, gcErr)
		}
	}
	c.Collect()
	if gcErr != nil {
		t.Fatal(gcErr)
	}
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("shadow model: %v", err)
	}
	run.stats = h.Stats
	run.spaces = make(map[string][]heap.Word)
	for _, s := range h.Spaces {
		run.spaces[s.Name] = append([]heap.Word(nil), s.Mem[:s.Top]...)
	}
	return run
}

// TestShadowAtThresholdOneIsWholesale is the differential of the two arms
// of the shared step. At threshold 1 every survivor is promoted, so a
// nursery that runs the tenured arm — BeginTenured, the flip, the refilter,
// the promoted-region rescan — must be indistinguishable from one that runs
// the wholesale arm (plain Begin, reset, clear): the same mutator Stats, the
// same GCStats after every single collection, no word ever retained, the
// same nursery remembered set after every collection (empty after a minor),
// and word-identical spaces after a final major collection. The one field
// that differs is GCStats.TenureThreshold, which only the tenured arm
// reports (1; the wholesale arm never writes it).
func TestShadowAtThresholdOneIsWholesale(t *testing.T) {
	const nOps = 4000
	for u := range users {
		for _, census := range []bool{false, true} {
			for seed := int64(41); seed <= 42; seed++ {
				t.Run(fmt.Sprintf("%s/census=%v/seed%d", users[u].name, census, seed), func(t *testing.T) {
					ref := runArm(t, u, false, census, seed, nOps)
					got := runArm(t, u, true, census, seed, nOps)

					if got.stats != ref.stats {
						t.Errorf("mutator stats diverge: tenured arm %+v, wholesale arm %+v", got.stats, ref.stats)
					}
					if len(got.perGC) != len(ref.perGC) {
						t.Fatalf("tenured arm collected %d times, wholesale arm %d", len(got.perGC), len(ref.perGC))
					}
					minors := 0
					for i := range ref.perGC {
						g, r := got.perGC[i], ref.perGC[i]
						// Unwritten until the tenured arm's first minor, 1 from then on.
						if th := g.gc.TenureThreshold; th != 0 && th != 1 {
							t.Fatalf("collection %d: tenured arm reports threshold %d, want 1", i, th)
						}
						g.gc.TenureThreshold = 0
						if g != r {
							t.Fatalf("collection %d diverges:\n  tenured arm   %+v\n  wholesale arm %+v", i, g, r)
						}
						if i > 0 && r.gc.MajorCollections == ref.perGC[i-1].gc.MajorCollections {
							minors++
						}
					}
					if minors == 0 {
						t.Error("the workload ran no minor collection; the differential proved nothing")
					}
					last := got.perGC[len(got.perGC)-1].gc
					if last.TenureThreshold != 1 {
						t.Errorf("tenured arm ends reporting threshold %d, want 1", last.TenureThreshold)
					}
					if last.WordsTenured != 0 {
						t.Errorf("tenured arm retained %d words at threshold 1", last.WordsTenured)
					}
					if last.WordsPromoted == 0 {
						t.Error("nothing was promoted; the differential proved nothing")
					}

					for name, want := range ref.spaces {
						if have, ok := got.spaces[name]; !ok {
							t.Errorf("tenured arm has no space %q", name)
						} else if !slices.Equal(have, want) {
							t.Errorf("space %q diverges: tenured arm %d words, wholesale arm %d", name, len(have), len(want))
						}
					}
					if len(got.spaces) != len(ref.spaces)+1 {
						t.Errorf("tenured arm has %d spaces, want the wholesale arm's %d plus the shadow", len(got.spaces), len(ref.spaces))
					}
				})
			}
		}
	}
}

// TestMinorsAllocateNothing extends generational's
// TestMinorSteadyStateZeroAllocs to every user of the step and to both of
// its arms: once warm, a minor collection that evacuates roots, scans a
// remembered set, refilters it and rescans what it promoted creates no Go
// object. The nursery is filled through the collector's own AllocRaw and
// linked with raw stores (no Ref API in the loop, which would allocate).
//
// Each cycle builds a 100-pair chain in the nursery, hangs it off a
// permanently live old object (a remembered old-to-young pointer), points
// the previous cycle's head at it (under Tenure 2 that head is promoted
// while the new chain is retained: a pointer only the promoted-region
// rescan can find), cuts the chain before that, and allocates garbage
// until a collection fires.
func TestMinorsAllocateNothing(t *testing.T) {
	big := []struct {
		name string
		mk   func(h *heap.Heap) collector
	}{
		{"generational", func(h *heap.Heap) collector { return generational.New(h, 2048, 1<<16) }},
		{"multigen", func(h *heap.Heap) collector { return multigen.New(h, []int{2048, 1 << 15, 1 << 16}) }},
		{"hybrid", func(h *heap.Heap) collector { return hybrid.New(h, 2048, 8, 1<<13) }},
	}
	const chain = 100
	for _, b := range big {
		for _, cfg := range []heap.Config{{}, {Tenure: 2}} {
			t.Run(fmt.Sprintf("%s/tenure=%d", b.name, cfg.Tenure), func(t *testing.T) {
				h := heap.New(heap.WithConfig(cfg))
				c := b.mk(h)
				st := c.GCStats()
				field := func(obj heap.Word, i int) *heap.Word {
					return &h.SpaceOf(obj).Mem[heap.PtrOff(obj)+i]
				}
				store := func(obj heap.Word, i int, val heap.Word) {
					*field(obj, i) = val
					c.RecordWrite(obj, val)
				}
				const car, cdr = 1, 2

				// The anchor: one rooted pair, moved out of the nursery for good.
				h.GlobalWord(c.AllocRaw(heap.TPair, 2))
				c.Collect()
				var anchor heap.Word
				h.VisitRoots(func(slot *heap.Word) {
					if heap.IsPtr(*slot) {
						anchor = *slot
					}
				})
				if anchor == 0 || heap.PtrSpace(anchor) == c.YoungSpaces()[0].ID {
					t.Fatalf("expected the rooted pair outside the nursery, got %#x", uint64(anchor))
				}
				*field(anchor, car), *field(anchor, cdr) = heap.NullWord, heap.NullWord

				cycle := func() {
					prev := *field(anchor, car)
					if heap.IsPtr(prev) {
						tail := prev
						for i := 1; i < chain; i++ {
							tail = *field(tail, cdr)
						}
						*field(tail, cdr) = heap.NullWord
					}
					head := prev
					for i := 0; i < chain; i++ {
						w := c.AllocRaw(heap.TPair, 2)
						*field(w, car), *field(w, cdr) = heap.FixnumWord(int64(i)), head
						head = w
					}
					store(anchor, car, head)
					if heap.IsPtr(prev) {
						// No collection ran since prev was read: the chain fits
						// the space a collection just cleared.
						store(prev, car, head)
					}
					for before := st.Collections; st.Collections == before; {
						w := c.AllocRaw(heap.TPair, 2)
						*field(w, car), *field(w, cdr) = heap.NullWord, heap.NullWord
					}
				}
				for i := 0; i < 4; i++ {
					cycle() // warm-up: remembered sets, scan buffers and histograms size themselves
				}

				before := *st
				allocs := testing.AllocsPerRun(20, cycle)
				if allocs != 0 {
					t.Errorf("a steady-state minor collection allocates %.0f objects/run, want 0", allocs)
				}
				if n := st.Collections - before.Collections; n != 21 || st.MajorCollections != before.MajorCollections {
					t.Fatalf("measured %d collections (%d major), want 21 minors", n, st.MajorCollections-before.MajorCollections)
				}
				if st.WordsPromoted == before.WordsPromoted || st.RemsetScanned == before.RemsetScanned {
					t.Fatal("nothing promoted or no remembered entry scanned; the guard must measure real minor collections")
				}
				if tenured := st.WordsTenured != before.WordsTenured; tenured != (cfg.Tenure > 1) {
					t.Fatalf("tenure=%d retained words: %v", cfg.Tenure, tenured)
				}
				if err := heap.VerifyCollector(h, c); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
