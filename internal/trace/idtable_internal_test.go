package trace

import (
	"errors"
	"io"
	"strings"
	"testing"

	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

// TestIDTableBasics pins the table against what the maps gave for free: an
// address never stored is unknown, not ID 0; a move forgets the old
// address; a reused address takes the new ID; a space that was Resized or
// added after the table was built is picked up on first touch.
func TestIDTableBasics(t *testing.T) {
	h := heap.New()
	a := h.NewSpace("a", 64)
	tab := idTable{h: h}
	at := func(s *heap.Space, off int) heap.Word { return heap.PtrWord(s.ID, off) }

	if _, ok := tab.lookup(at(a, 0)); ok {
		t.Fatal("empty table resolved an address")
	}
	if err := tab.set(at(a, 0), 0); err != nil {
		t.Fatal(err)
	}
	if id, ok := tab.lookup(at(a, 0)); !ok || id != 0 {
		t.Fatalf("ID 0 at offset 0: got %d, %v", id, ok)
	}
	if _, ok := tab.lookup(at(a, 1)); ok {
		t.Fatal("an address never stored resolved")
	}

	// A space added later, and a move into it.
	b := h.NewSpace("b", 32)
	if _, ok := tab.lookup(at(b, 5)); ok {
		t.Fatal("an address in an untouched space resolved")
	}
	if id, ok := tab.move(at(a, 0), at(b, 5)); !ok || id != 0 {
		t.Fatalf("move: got %d, %v", id, ok)
	}
	if _, ok := tab.lookup(at(a, 0)); ok {
		t.Fatal("the moved-from address still resolves")
	}
	if id, ok := tab.lookup(at(b, 5)); !ok || id != 0 {
		t.Fatalf("the moved-to address: got %d, %v", id, ok)
	}
	if _, ok := tab.move(at(a, 0), at(b, 6)); ok {
		t.Fatal("moving from an address with no object reported an ID")
	}

	// Address reuse: a later allocation at the same address wins.
	if err := tab.set(at(b, 5), 41); err != nil {
		t.Fatal(err)
	}
	if id, _ := tab.lookup(at(b, 5)); id != 41 {
		t.Fatalf("reused address: got %d, want 41", id)
	}

	// Resize beyond the table: entries survive, new offsets are reachable.
	b.Resize(128)
	if err := tab.set(at(b, 100), 7); err != nil {
		t.Fatal(err)
	}
	if id, _ := tab.lookup(at(b, 100)); id != 7 {
		t.Fatalf("offset past the old capacity: got %d, want 7", id)
	}
	if id, _ := tab.lookup(at(b, 5)); id != 41 {
		t.Fatalf("entry lost across the resize: got %d, want 41", id)
	}
	if len(tab.spaces[b.ID]) != 128 || len(tab.spaces[a.ID]) != 64 {
		t.Fatalf("tables sized %d and %d, want the spaces' capacities 64 and 128",
			len(tab.spaces[a.ID]), len(tab.spaces[b.ID]))
	}
}

// TestIDTableBound: entries are 32 bits wide, so the largest ID that fits
// round-trips and the next one is ErrInvalid — never a wrapped entry.
func TestIDTableBound(t *testing.T) {
	h := heap.New()
	s := h.NewSpace("s", 8)
	tab := idTable{h: h}
	w := heap.PtrWord(s.ID, 3)
	if err := tab.set(w, maxTableID); err != nil {
		t.Fatal(err)
	}
	if id, ok := tab.lookup(w); !ok || id != maxTableID {
		t.Fatalf("largest ID: got %d, %v", id, ok)
	}
	for _, id := range []uint64{maxTableID + 1, 1 << 32, 1<<32 + 5, ^uint64(0)} {
		if err := tab.set(w, id); !errors.Is(err, ErrInvalid) {
			t.Fatalf("set(%d): got %v, want ErrInvalid", id, err)
		}
	}
	if id, _ := tab.lookup(w); id != maxTableID {
		t.Fatalf("a rejected ID disturbed the entry: %d", id)
	}
}

// TestRecorderStopsAtTableBound drives the recorder across the bound with a
// faked allocation counter: the last ID that fits is recorded, the next
// allocation poisons the recording with ErrInvalid.
func TestRecorderStopsAtTableBound(t *testing.T) {
	h := heap.New()
	semispace.New(h, 4096)
	w, err := NewWriter(io.Discard, Header{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecorder(h, w)
	if err != nil {
		t.Fatal(err)
	}
	h.Cons(h.Fix(1), h.Null())
	w.nextID = maxTableID
	last := h.Cons(h.Fix(2), h.Null())
	h.SetCar(last, h.Fix(3)) // the largest ID still resolves
	if rec.Err() != nil {
		t.Fatalf("ID %d must fit: %v", uint64(maxTableID), rec.Err())
	}
	h.Cons(h.Fix(4), h.Null())
	if err := rec.Finish(); !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "identity table") {
		t.Fatalf("allocation past the bound: got %v, want ErrInvalid from the identity table", err)
	}
}
