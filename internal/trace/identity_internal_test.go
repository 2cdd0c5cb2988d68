package trace

import (
	"errors"
	"io"
	"strings"
	"testing"

	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

// TestRecorderStopsAtTableBound drives the recorder across the bound of the
// heap's identity table (32-bit entries) with a faked allocation counter:
// the last ID that fits is recorded, the next allocation poisons the
// recording with ErrInvalid — never a wrapped entry, never a panic.
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
	w.nextID = heap.MaxIdentity
	last := h.Cons(h.Fix(2), h.Null())
	h.SetCar(last, h.Fix(3)) // the largest ID still resolves
	if rec.Err() != nil {
		t.Fatalf("ID %d must fit: %v", uint64(heap.MaxIdentity), rec.Err())
	}
	h.Cons(h.Fix(4), h.Null())
	if err := rec.Finish(); !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "identity table") {
		t.Fatalf("allocation past the bound: got %v, want ErrInvalid from the identity table", err)
	}
}

// TestReplayerStopsAtTableBound: the replayer refuses the allocation whose
// ordinal the heap's table could not hold, with ErrInvalid.
func TestReplayerStopsAtTableBound(t *testing.T) {
	h := heap.New()
	rp, err := NewReplayer(h, semispace.New(h, 4096))
	if err != nil {
		t.Fatal(err)
	}
	alloc := &Event{Kind: KindAlloc, Type: heap.TPair, Size: 2}
	if err := rp.Apply(alloc); err != nil {
		t.Fatal(err)
	}
	h.Stats.ObjectsAllocated = heap.MaxIdentity + 1
	if err := rp.Apply(alloc); !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "identity table") {
		t.Fatalf("allocation past the bound: got %v, want ErrInvalid from the identity table", err)
	}
}
