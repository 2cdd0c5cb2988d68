// Conformance tests for age-based tenuring (heap/tenure.go): the age
// oracle pins the header ages to a shadow model read off the heap's identity
// table, and
// threshold ∞ (heap.TenureNever) must never promote out of the nursery nor
// remember nursery-to-nursery pointers. The other end of the spectrum —
// the tenured arm of the young step at threshold 1 is word for word the
// wholesale arm — is young's TestShadowAtThresholdOneIsWholesale, which
// needs that package's test seam to arm a shadow at threshold 1 at all.
package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/hybrid"
	"rdgc/internal/gc/multigen"
	"rdgc/internal/heap"
)

// tenuringCollectors builds each tenuring-capable collector; the heap's
// Config decides how it tenures.
func tenuringCollectors() map[string]func(h *heap.Heap) heap.Collector {
	return map[string]func(h *heap.Heap) heap.Collector{
		"generational": func(h *heap.Heap) heap.Collector {
			return generational.New(h, 1024, 16384, generational.WithExpansion(2))
		},
		"multigen": func(h *heap.Heap) heap.Collector {
			return multigen.New(h, []int{1024, 2048, 16384}, multigen.WithExpansion(2))
		},
		"hybrid": func(h *heap.Heap) heap.Collector {
			return hybrid.New(h, 512, 8, 1024, hybrid.WithGrowth())
		},
	}
}

// tenureAt is the Config of a tenuring policy: a fixed promotion threshold,
// or the adaptive controller for threshold 0.
func tenureAt(threshold int) heap.Config {
	return heap.Config{Tenure: threshold, Adaptive: threshold == 0}
}

// runWithAgeOracle drives the randomized workload at the given threshold
// (0 = adaptive) with the age oracle attached, checking the header ages
// against the oracle after every collection and at the end. It returns the peak number of nonzero-age
// objects observed, so callers can assert retention actually happened.
func runWithAgeOracle(t *testing.T, mk func(h *heap.Heap) heap.Collector, threshold int, seed int64, census bool, nOps int) int {
	t.Helper()
	h := newHeap(tenureAt(threshold), census)
	c := mk(h)
	ten, ok := c.(heap.Tenurer)
	if !ok {
		t.Fatalf("%s does not implement heap.Tenurer", c.Name())
	}
	o := gctest.InstallAgeOracle(h, ten)
	var gcErr error
	peak := 0
	h.SetAfterGC(func() {
		o.Collected()
		peak = max(peak, len(o.Ages())) // the model only changes here
		if gcErr == nil {
			gcErr = heap.VerifyCollector(h, c)
		}
		if gcErr == nil {
			gcErr = o.Check()
		}
	})
	defer h.SetAfterGC(nil)

	src := rand.New(rand.NewSource(seed))
	m := gctest.NewMutator(h, src)
	for op := 0; op < nOps; op++ {
		m.Op(src.Intn(10))
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
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	return peak
}

// TestAgeOracle holds every tenuring collector's header ages to the
// identity-table shadow model across thresholds (including never-promote and
// the adaptive controller), seeds, and census instrumentation.
func TestAgeOracle(t *testing.T) {
	const oracleOps = 2500
	for _, threshold := range []int{2, 3, heap.TenureNever, 0 /* adaptive */} {
		for name, mk := range tenuringCollectors() {
			for _, census := range []bool{false, true} {
				for seed := int64(1); seed <= 2; seed++ {
					label := fmt.Sprintf("%s/threshold=%d/census=%v/seed%d", name, threshold, census, seed)
					t.Run(label, func(t *testing.T) {
						peak := runWithAgeOracle(t, mk, threshold, seed, census, oracleOps)
						if threshold != 0 && peak == 0 {
							t.Error("workload never retained a survivor; the oracle proved nothing")
						}
					})
				}
			}
		}
	}
}

// TestAgeOracleDetectsCorruption is the regression guard for the oracle
// itself: corrupting one live object's header age must fail Check.
func TestAgeOracleDetectsCorruption(t *testing.T) {
	h := heap.New(heap.WithConfig(heap.Config{Tenure: heap.TenureNever}))
	c := generational.New(h, 1024, 16384)
	o := gctest.InstallAgeOracle(h, c)
	h.SetAfterGC(o.Collected)
	defer h.SetAfterGC(nil)

	sc := h.Scope()
	defer sc.Close()
	live := gctest.BuildList(h, 20)
	gctest.Churn(h, 2000) // force several retaining minor collections
	gctest.CheckList(t, h, live, 20)
	if err := o.Check(); err != nil {
		t.Fatalf("oracle failed before corruption: %v", err)
	}

	var victim heap.Word
	var victimAge int
	for id, age := range o.Ages() {
		victim, _ = h.AddrOf(id)
		victimAge = age
		break
	}
	if victimAge == 0 {
		t.Fatal("no retained object to corrupt")
	}
	hdr := &h.SpaceOf(victim).Mem[heap.PtrOff(victim)]
	if got := heap.HeaderAge(*hdr); got != victimAge {
		t.Fatalf("the victim's header says age %d, the oracle %d", got, victimAge)
	}
	*hdr = heap.WithHeaderAge(*hdr, victimAge+1)
	if err := o.Check(); err == nil {
		t.Fatal("oracle did not detect a corrupted header age")
	}
}

// TestTenureNeverPromotesNothing pins the far end of the spectrum: under
// heap.TenureNever, minor collections retain every survivor in the young
// region — no words promoted, no major collections provoked, and (because
// nothing old ever points at the nursery) an empty remembered set even
// with nursery-to-nursery pointer writes flowing through the barrier.
func TestTenureNeverPromotesNothing(t *testing.T) {
	never := heap.WithConfig(heap.Config{Tenure: heap.TenureNever})
	t.Run("generational", func(t *testing.T) {
		h := heap.New(never)
		c := generational.New(h, 1024, 16384, generational.WithExpansion(2))
		exerciseTenureNever(t, h, c)
		if n := c.RemsetLen(); n != 0 {
			t.Errorf("remembered set has %d entries, want 0", n)
		}
	})
	t.Run("multigen", func(t *testing.T) {
		h := heap.New(never)
		c := multigen.New(h, []int{1024, 2048, 16384}, multigen.WithExpansion(2))
		exerciseTenureNever(t, h, c)
		if n := c.RemsetLen(); n != 0 {
			t.Errorf("remembered set has %d entries, want 0", n)
		}
	})
	t.Run("hybrid", func(t *testing.T) {
		h := heap.New(never)
		c := hybrid.New(h, 512, 8, 1024, hybrid.WithGrowth())
		exerciseTenureNever(t, h, c)
		if a, b := c.RemsetLens(); a != 0 || b != 0 {
			t.Errorf("remembered sets have %d+%d entries, want 0", a, b)
		}
	})
}

// exerciseTenureNever churns garbage under a small pinned structure with
// nursery-internal pointer writes, without ever forcing a collection, and
// asserts the never-promote invariants on the resulting stats.
func exerciseTenureNever(t *testing.T, h *heap.Heap, c heap.Collector) {
	t.Helper()
	st := c.GCStats()
	sc := h.Scope()
	defer sc.Close()

	const n = 30
	list := gctest.BuildList(h, n)
	// Nursery-to-nursery writes through the barrier: rotate a cell's cdr.
	cell := h.Cons(h.Fix(-1), h.Null())
	h.SetCdr(cell, list)
	gctest.Churn(h, 4000)
	h.SetCdr(cell, h.Cdr(list))
	gctest.Churn(h, 4000)

	gctest.CheckList(t, h, list, n)
	if st.Collections == 0 {
		t.Fatal("workload never collected")
	}
	if st.MajorCollections != 0 {
		t.Errorf("never-promote run forced %d major collections", st.MajorCollections)
	}
	if st.WordsPromoted != 0 {
		t.Errorf("promoted %d words under TenureNever, want 0", st.WordsPromoted)
	}
	if st.WordsTenured == 0 {
		t.Error("no words were retained; the workload proved nothing")
	}
	if err := heap.VerifyCollector(h, c); err != nil {
		t.Error(err)
	}
}
