package generational

import (
	"errors"
	"testing"

	"rdgc/internal/heap"
)

// TestVerifierCatchesDroppedRemsetEntry seeds the bug class the remembered-
// set rules exist to catch: an old-area object points into the nursery but
// its entry has been lost (the classic write-barrier omission). The test is
// in-package so it can reach into c.rs to drop the entry.
func TestVerifierCatchesDroppedRemsetEntry(t *testing.T) {
	h := heap.New()
	c := New(h, 1024, 16384, WithExpansion(2))
	s := h.Scope()
	defer s.Close()

	old := h.Cons(h.Fix(1), h.Null())
	c.Collect() // a major collection moves the pair to the old area
	if heap.PtrSpace(h.Get(old)) == c.young.Space().ID {
		t.Fatal("pair did not leave the nursery")
	}
	young := h.Cons(h.Fix(2), h.Null())
	h.SetCar(old, young) // the barrier records old -> nursery

	if err := heap.VerifyCollector(h, c); err != nil {
		t.Fatalf("remembered heap should verify clean: %v", err)
	}
	c.rs.Clear() // seed the bug: the entry vanishes
	err := heap.VerifyCollector(h, c)
	if !errors.Is(err, heap.ErrRemsetMissing) {
		t.Fatalf("diagnosed %v, want heap.ErrRemsetMissing", err)
	}
}
