package heap

import (
	"errors"
	"testing"
)

// TestCheckIsWholeHeapVerify: Check is Verify with every space live, so each
// corruption of a rooted chain gets the same diagnosis from both — and a
// dangling pointer inside unreachable garbage is diagnosed like any other,
// because the object walk covers every object of a live space.
func TestCheckIsWholeHeapVerify(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    error
		corrupt func(h *Heap, s *Space)
	}{
		{"malformed header", ErrMalformedHeader, func(_ *Heap, s *Space) { s.Mem[0] = FixnumWord(5) }},
		{"stale mark", ErrStaleMark, func(_ *Heap, s *Space) { s.Mem[0] = SetMark(s.Mem[0]) }},
		{"block overrun", ErrBlockOverrun, func(_ *Heap, s *Space) { s.Mem[0] = HeaderWord(TVector, 1000) }},
		{"pointer past top", ErrDanglingPointer, func(_ *Heap, s *Space) { s.Mem[2] = PtrWord(s.ID, s.Top+6) }},
		{"pointer to non-header", ErrDanglingPointer, func(_ *Heap, s *Space) { s.Mem[2] = PtrWord(s.ID, 1) }},
		{"reachable free block", ErrDanglingPointer, func(_ *Heap, s *Space) {
			s.Mem[3] = HeaderWord(TFree, 2) // kill pair 1, still referenced by pair 2
			s.Mem[5] = NullWord
		}},
		{"unknown space", ErrDanglingPointer, func(_ *Heap, s *Space) { s.Mem[2] = PtrWord(77, 0) }},
		{"unreachable garbage", ErrDanglingPointer, func(h *Heap, s *Space) {
			off, _ := s.Bump(3)
			h.InitObject(s, off, TPair, 2)
			s.Mem[off+1] = PtrWord(77, 0) // dangling, and unrooted
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := New()
			s := h.NewSpace("arena", 128)
			h.GlobalWord(buildChain(t, h, s, 4))
			if err := Check(h); err != nil {
				t.Fatalf("fixture not clean: %v", err)
			}
			tc.corrupt(h, s)
			if err := Check(h); !errors.Is(err, tc.kind) {
				t.Errorf("Check diagnosed %v, want %v", err, tc.kind)
			}
			if err := Verify(h, VerifySpec{}); !errors.Is(err, tc.kind) {
				t.Errorf("Verify diagnosed %v, want %v", err, tc.kind)
			}
		})
	}
}
