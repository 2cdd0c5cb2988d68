package heap

import "testing"

// TestLOSAllocAndSweep covers the large-object lifecycle: allocation above
// the threshold mints a dedicated space, survivors stay put across sweeps,
// and dead objects return their space to the pool.
func TestLOSAllocAndSweep(t *testing.T) {
	h := New()
	l := NewLargeObjectSpace(h, "t")

	total := LargeObjectWords + 100
	s := l.Alloc(total)
	h.InitObject(s, 0, TVector, total-1)
	if s.Top != total {
		t.Fatalf("adopted space Top = %d, want %d", s.Top, total)
	}
	if l.LiveObjects() != 1 || l.LiveWords() != total {
		t.Fatalf("live = %d objects / %d words, want 1 / %d", l.LiveObjects(), l.LiveWords(), total)
	}

	// Marked object survives the sweep with its bitmap cleared.
	s.SetMarkAt(0)
	if swept := l.Sweep(); swept != uint64(total) {
		t.Errorf("sweep examined %d words, want %d", swept, total)
	}
	if l.LiveObjects() != 1 || !s.MarksClear() {
		t.Fatal("marked large object did not survive cleanly")
	}

	// Unmarked object dies; its space joins the pool.
	if l.Sweep(); l.LiveObjects() != 0 || l.PooledSpaces() != 1 || l.LiveWords() != 0 {
		t.Fatalf("dead large object not pooled: live=%d pool=%d words=%d",
			l.LiveObjects(), l.PooledSpaces(), l.LiveWords())
	}

	// Reallocation of a fitting size reuses the pooled space.
	s2 := l.Alloc(LargeObjectWords + 50)
	if s2 != s {
		t.Error("pool did not recycle the dead space")
	}
	if l.PooledSpaces() != 0 {
		t.Error("pooled space still listed after reuse")
	}
}

// TestLOSPoolBestFit: among pooled spaces the smallest sufficient capacity
// wins, with the lowest ID breaking ties.
func TestLOSPoolBestFit(t *testing.T) {
	h := New()
	l := NewLargeObjectSpace(h, "t")
	big := l.Alloc(4 * BlockWords)
	small := l.Alloc(LargeObjectWords + 1)
	l.Sweep() // both unmarked: both pooled

	got := l.Alloc(LargeObjectWords + 1)
	if got != small {
		t.Errorf("best fit chose %v, want the smaller %v", got, small)
	}
	if s, ok := l.FromPool(5 * BlockWords); ok {
		t.Errorf("FromPool found %v for a request larger than any pooled space", s)
	}
	if got := l.Alloc(2 * BlockWords); got != big {
		t.Errorf("second alloc chose %v, want the pooled %v", got, big)
	}
}

// TestLOSThresholdPanics: the large-object space refuses requests the
// blocked spaces should have handled.
func TestLOSThresholdPanics(t *testing.T) {
	h := New()
	l := NewLargeObjectSpace(h, "t")
	defer func() {
		if recover() == nil {
			t.Error("Alloc at the threshold did not panic")
		}
	}()
	l.Alloc(LargeObjectWords)
}

// TestLOSAppendLive: region and verify lists see exactly the live spaces.
func TestLOSAppendLive(t *testing.T) {
	h := New()
	l := NewLargeObjectSpace(h, "t")
	a := l.Alloc(LargeObjectWords + 1)
	b := l.Alloc(LargeObjectWords + 2)
	h.InitObject(a, 0, TVector, LargeObjectWords)
	h.InitObject(b, 0, TVector, LargeObjectWords+1)
	a.SetMarkAt(0)
	l.Sweep() // b dies

	live := l.AppendLive(nil)
	if len(live) != 1 || live[0] != a {
		t.Fatalf("AppendLive = %v, want [%v]", live, a)
	}
}
