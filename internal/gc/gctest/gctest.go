// Package gctest provides collector-agnostic stress scenarios shared by the
// test suites of every collector: each scenario allocates structures, forces
// collections, and verifies that the structures survive intact.
package gctest

import (
	"testing"

	"rdgc/internal/heap"
)

// BuildList allocates the list (n-1 ... 1 0).
func BuildList(h *heap.Heap, n int) heap.Ref {
	s := h.Scope()
	acc := h.Null()
	for i := 0; i < n; i++ {
		acc = h.Cons(h.Fix(int64(i)), acc)
	}
	return s.Return(acc)
}

// CheckList verifies a list built by BuildList.
func CheckList(t *testing.T, h *heap.Heap, l heap.Ref, n int) {
	t.Helper()
	s := h.Scope()
	defer s.Close()
	cur := h.Dup(l)
	for i := n - 1; i >= 0; i-- {
		if !h.IsPair(cur) {
			t.Fatalf("list truncated at element %d", n-1-i)
		}
		if got := h.FixVal(h.Car(cur)); got != int64(i) {
			t.Fatalf("element %d = %d, want %d", n-1-i, got, i)
		}
		h.Set(cur, h.Get(h.Cdr(cur)))
	}
	if !h.IsNull(cur) {
		t.Fatal("list not null-terminated")
	}
}

// BuildTree allocates a full binary tree of the given depth with fixnum
// leaves, returning its root. Interior nodes are pairs.
func BuildTree(h *heap.Heap, depth int) heap.Ref {
	s := h.Scope()
	if depth == 0 {
		return s.Return(h.Fix(1))
	}
	l := BuildTree(h, depth-1)
	r := BuildTree(h, depth-1)
	return s.Return(h.Cons(l, r))
}

// CountLeaves sums the fixnum leaves of a BuildTree tree.
func CountLeaves(h *heap.Heap, tree heap.Ref) int64 {
	s := h.Scope()
	defer s.Close()
	if h.IsFix(tree) {
		return h.FixVal(tree)
	}
	return CountLeaves(h, h.Car(tree)) + CountLeaves(h, h.Cdr(tree))
}

// Churn allocates and immediately drops garbage pairs, forcing collections
// for any finite heap.
func Churn(h *heap.Heap, n int) {
	for i := 0; i < n; i++ {
		s := h.Scope()
		h.Cons(h.Fix(int64(i)), h.Null())
		s.Close()
	}
}

// FragmentBlocks fills the next n blocks of a block-structured heap with
// two-word boxes and roots every other one, so the collection the caller runs
// next leaves those blocks holding nothing but two-word holes: free lists
// non-empty, no run a request of three words or more can use. The heap must
// be otherwise empty and at least n blocks large; the rooting table is a
// large object, outside the blocks.
func FragmentBlocks(h *heap.Heap, n int) {
	boxes := n * heap.BlockWords / 2
	keep := h.Global(h.MakeVector(boxes/2, h.Null()))
	for i := 0; i < boxes; i++ {
		s := h.Scope()
		if box := h.Box(h.Fix(int64(i))); i%2 == 0 {
			h.VectorSet(keep, i/2, box)
		}
		s.Close()
	}
}

// StressCollector exercises a freshly configured heap/collector pair with
// live data pinned across heavy garbage churn, shared-structure updates,
// and explicit collections.
func StressCollector(t *testing.T, h *heap.Heap, c heap.Collector) {
	t.Helper()
	root := h.Scope()
	defer root.Close()

	const listLen = 200
	list := BuildList(h, listLen)
	tree := BuildTree(h, 6)
	vec := h.MakeVector(10, h.Null())
	for i := 0; i < 10; i++ {
		h.VectorSet(vec, i, BuildList(h, i+1))
	}

	Churn(h, 5000)
	c.Collect()
	Churn(h, 5000)

	CheckList(t, h, list, listLen)
	if got := CountLeaves(h, tree); got != 64 {
		t.Errorf("tree leaves = %d, want 64", got)
	}
	for i := 0; i < 10; i++ {
		CheckList(t, h, h.VectorRef(vec, i), i+1)
	}

	// Shared structure must stay shared across collections.
	shared := BuildList(h, 3)
	a := h.Cons(h.Fix(0), shared)
	b := h.Cons(h.Fix(1), shared)
	c.Collect()
	if !h.Eq(h.Cdr(a), h.Cdr(b)) {
		t.Error("sharing broken by collection")
	}
	h.SetCar(h.Cdr(a), h.Fix(99))
	if got := h.FixVal(h.Car(h.Cdr(b))); got != 99 {
		t.Errorf("mutation through shared cdr lost: got %d", got)
	}

	// Cycles must survive and be reclaimable.
	cyc := h.Cons(h.Fix(7), h.Null())
	h.SetCdr(cyc, cyc)
	c.Collect()
	if !h.Eq(h.Cdr(cyc), cyc) {
		t.Error("cycle broken by collection")
	}

	if st := c.GCStats(); st.Collections == 0 {
		t.Error("stress run never collected")
	}
}
