package npms

import (
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

// incrHeap builds a heap with incremental collection on or off and every
// other knob at the zero Config's value.
func incrHeap(on bool) *heap.Heap {
	return heap.New(heap.WithConfig(heap.Config{Incremental: on}))
}

func TestIncrementalStress(t *testing.T) {
	h := incrHeap(true)
	c := New(h, 8, 2048)
	gctest.StressCollector(t, h, c)
}

func TestIncrementalStressNoCompaction(t *testing.T) {
	h := incrHeap(true)
	c := New(h, 8, 2048, WithCompactEvery(0))
	gctest.StressCollector(t, h, c)
}

// TestIncrementalSurvivors pins that the same program leaves the same live
// data under incremental and stop-the-world collection.
func TestIncrementalSurvivors(t *testing.T) {
	run := func(incremental bool) []int64 {
		h := incrHeap(incremental)
		c := New(h, 16, 4096)
		s := h.Scope()
		defer s.Close()
		var keep []heap.Ref
		for i := 0; i < 40; i++ {
			keep = append(keep, h.Cons(h.Fix(int64(i*7)), h.Null()))
			cs := h.Scope()
			_ = gctest.BuildList(h, 150)
			cs.Close()
		}
		c.Collect()
		vals := make([]int64, len(keep))
		for i, r := range keep {
			vals[i] = h.FixVal(h.Car(r))
		}
		return vals
	}
	stw, incr := run(false), run(true)
	for i := range stw {
		if stw[i] != incr[i] {
			t.Fatalf("survivor %d: stw=%d incr=%d", i, stw[i], incr[i])
		}
	}
}

// TestIncrementalCyclesRun asserts the incremental machinery actually
// engages (phases traversed, slices run, pauses recorded) on a churn
// workload, with the verifier clean at every phase.
func TestIncrementalCyclesRun(t *testing.T) {
	h := incrHeap(true)
	c := New(h, 16, 4096, WithCompactEvery(0))
	h.SetAfterGC(func() {
		if err := heap.VerifyCollector(h, c); err != nil {
			t.Fatalf("verify after collection: %v", err)
		}
	})
	s := h.Scope()
	defer s.Close()
	_ = gctest.BuildList(h, 800)
	sawMark, sawSweep := false, false
	for i := 0; i < 20000; i++ {
		cs := h.Scope()
		_ = gctest.BuildList(h, 4)
		cs.Close()
		switch c.phase {
		case npMarking:
			sawMark = true
		case npSweeping:
			sawSweep = true
		}
		if i%1024 == 0 {
			if err := heap.VerifyCollector(h, c); err != nil {
				t.Fatalf("verify at op %d (phase %d): %v", i, c.phase, err)
			}
		}
	}
	g := c.GCStats()
	if !sawMark || !sawSweep {
		t.Fatalf("phases not exercised: marking=%v sweeping=%v (collections=%d)", sawMark, sawSweep, g.Collections)
	}
	if g.Pauses.Count == 0 || g.BarrierShades == 0 {
		t.Fatalf("incremental instrumentation silent: %+v", g)
	}
	c.Collect()
	if err := heap.Check(h); err != nil {
		t.Fatalf("final heap check: %v", err)
	}
}

// TestIncrementalCompactMidCycle pins the stop-the-world reset: compaction
// requested while a cycle is marking or sweeping resolves the cycle first
// and leaves a verifier-clean heap.
func TestIncrementalCompactMidCycle(t *testing.T) {
	for _, target := range []int{npMarking, npSweeping} {
		h := incrHeap(true)
		c := New(h, 16, 4096, WithCompactEvery(0))
		s := h.Scope()
		list := gctest.BuildList(h, 500)
		for i := 0; i < 200000 && c.phase != target; i++ {
			cs := h.Scope()
			_ = gctest.BuildList(h, 4)
			cs.Close()
		}
		if c.phase != target {
			t.Fatalf("never reached phase %d", target)
		}
		c.compact()
		if c.phase != npIdle {
			t.Fatalf("compaction left phase %d", c.phase)
		}
		if err := heap.VerifyCollector(h, c); err != nil {
			t.Fatalf("verify after mid-cycle compaction (phase %d): %v", target, err)
		}
		gctest.CheckList(t, h, list, 500)
		s.Close()
	}
}
