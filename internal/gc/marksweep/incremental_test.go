package marksweep

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

func newIncremental(t *testing.T, words int, opts ...Option) (*heap.Heap, *Collector) {
	t.Helper()
	h := incrHeap(true)
	c := New(h, words, opts...)
	if c.incr == nil {
		t.Fatal("incremental mode did not arm")
	}
	return h, c
}

func TestIncrementalStress(t *testing.T) {
	h := incrHeap(true)
	c := New(h, 8192)
	gctest.StressCollector(t, h, c)
}

// TestIncrementalSurvivors pins semantic equivalence at this layer: the
// same build-churn-drop program leaves the same live data whether
// collection is incremental or stop-the-world.
func TestIncrementalSurvivors(t *testing.T) {
	run := func(incremental bool) []int64 {
		h := incrHeap(incremental)
		c := New(h, 8192)
		s := h.Scope()
		defer s.Close()
		var keep []heap.Ref
		for i := 0; i < 40; i++ {
			keep = append(keep, h.Cons(h.Fix(int64(i*i)), h.Null()))
			gctest.Churn(h, 400)
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

// TestIncrementalBoundsPauses is the headline property: with cycles split
// into slices and per-block sweeps, the largest mutator-visible pause must
// sit far below the stop-the-world collector's whole-heap pauses on the
// same program.
func TestIncrementalBoundsPauses(t *testing.T) {
	run := func(incremental bool) *heap.GCStats {
		h := incrHeap(incremental)
		c := New(h, 65536)
		s := h.Scope()
		defer s.Close()
		_ = gctest.BuildList(h, 2000) // 6000 words pinned live
		// Short-lived lists: every Cons stores the previous pair into the
		// new one, so the churn exercises the insertion barrier with real
		// pointer stores, not just fixnum initialization.
		for chunk := 0; chunk < 600; chunk++ {
			cs := h.Scope()
			_ = gctest.BuildList(h, 200)
			cs.Close()
		}
		return c.GCStats()
	}
	stw, incr := run(false), run(true)
	if stw.Collections == 0 || incr.Collections == 0 {
		t.Fatalf("no collections ran: stw=%d incr=%d", stw.Collections, incr.Collections)
	}
	if incr.Pauses.MaxWords*5 > stw.Pauses.MaxWords {
		t.Errorf("incremental max pause %d not 5x below stop-the-world %d",
			incr.Pauses.MaxWords, stw.Pauses.MaxWords)
	}
	if incr.Pauses.P99()*5 > stw.Pauses.P99() {
		t.Errorf("incremental p99 pause %d not 5x below stop-the-world %d",
			incr.Pauses.P99(), stw.Pauses.P99())
	}
	if incr.BarrierShades == 0 {
		t.Error("insertion barrier never shaded anything on a churn workload")
	}
}

// TestIncrementalVerifiesMidCycle drives the verifier at every phase of the
// incremental cycle via the after-collection hook plus explicit checks
// while marking and sweeping are in progress.
func TestIncrementalVerifiesMidCycle(t *testing.T) {
	h, c := newIncremental(t, 16384)
	h.SetAfterGC(func() {
		if err := heap.VerifyCollector(h, c); err != nil {
			t.Fatalf("verify after collection: %v", err)
		}
	})
	s := h.Scope()
	defer s.Close()
	_ = gctest.BuildList(h, 800)
	sawMark, sawSweep := false, false
	for i := 0; i < 3000; i++ {
		h.Cons(h.Fix(int64(i)), h.Null())
		switch c.phase {
		case msMarking:
			sawMark = true
		case msSweeping:
			sawSweep = true
		}
		if i%512 == 0 {
			if err := heap.VerifyCollector(h, c); err != nil {
				t.Fatalf("verify at op %d (phase %d): %v", i, c.phase, err)
			}
		}
	}
	if !sawMark || !sawSweep {
		t.Fatalf("cycle phases not exercised: marking=%v sweeping=%v", sawMark, sawSweep)
	}
}

// TestIncrementalExplicitCollectMidCycle pins the stop-the-world fallback:
// an explicit Collect during each phase resolves the in-progress cycle and
// leaves a clean, fully swept heap.
func TestIncrementalExplicitCollectMidCycle(t *testing.T) {
	for _, target := range []int{msMarking, msSweeping} {
		h, c := newIncremental(t, 16384)
		s := h.Scope()
		list := gctest.BuildList(h, 500)
		for i := 0; i < 20000 && c.phase != target; i++ {
			h.Cons(h.Fix(int64(i)), h.Null())
		}
		if c.phase != target {
			t.Fatalf("never reached phase %d", target)
		}
		c.Collect()
		if c.phase != msIdle {
			t.Fatalf("explicit collect left phase %d", c.phase)
		}
		if err := heap.Check(h); err != nil {
			t.Fatalf("heap.Check after explicit collect in phase %d: %v", target, err)
		}
		gctest.CheckList(t, h, list, 500)
		s.Close()
	}
}

// TestIncrementalLargeObjects covers the large-object paths during a cycle:
// spaces minted or reused from the pool while marking is active must join
// the cycle's region and survive if live.
func TestIncrementalLargeObjects(t *testing.T) {
	h, c := newIncremental(t, 16384)
	s := h.Scope()
	defer s.Close()
	_ = gctest.BuildList(h, 500)
	for c.phase != msMarking {
		h.Cons(h.Fix(1), h.Null())
	}
	v := h.MakeVector(600, h.Fix(7)) // large: minted mid-mark
	for c.phase == msMarking {
		h.Cons(h.Fix(2), h.Null())
	}
	if h.FixVal(h.VectorRef(v, 599)) != 7 {
		t.Fatal("large object allocated during marking was corrupted")
	}
	c.Collect()
	if h.FixVal(h.VectorRef(v, 0)) != 7 || c.los.LiveObjects() != 1 {
		t.Fatal("large object allocated during marking did not survive")
	}
}

func TestIncrementalPausesMatchTotals(t *testing.T) {
	h, c := newIncremental(t, 16384)
	var logged uint64
	h.SetPauseLog(func(words uint64) { logged += words })
	s := h.Scope()
	defer s.Close()
	_ = gctest.BuildList(h, 500)
	gctest.Churn(h, 60000)
	g := c.GCStats()
	if logged != g.Pauses.TotalWords {
		t.Errorf("pause log saw %d words, the histogram %d", logged, g.Pauses.TotalWords)
	}
	if g.Pauses.Count == 0 {
		t.Error("no pauses recorded")
	}
}
