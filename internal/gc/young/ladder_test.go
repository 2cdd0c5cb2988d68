package young

import (
	"fmt"
	"testing"

	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// stubOld counts the rungs the ladder takes. Its Minor frees nothing, so
// the rungs after it are reached; its Major empties the nursery, as every
// collector's does.
type stubOld struct {
	g                      *Gen
	minors, majors, allocs int
}

func (o *stubOld) Minor(int) { o.minors++ }
func (o *stubOld) Major(int) { o.majors++; o.g.Space().Reset() }
func (o *stubOld) AllocOld(heap.Type, int, int) heap.Word {
	o.allocs++
	return heap.NullWord
}

// TestLadderRungs walks Gen.AllocRaw's rungs on a 64-word nursery: an
// object over half of it goes to the old area; pairs fill it without a
// collection; the pair that does not fit runs a minor, and when the minor
// made no room a tenuring nursery runs a major and bumps, while a wholesale
// one (whose minor always empties it) panics.
func TestLadderRungs(t *testing.T) {
	for _, cfg := range []heap.Config{{}, {Tenure: 2}} {
		t.Run(fmt.Sprintf("tenure=%d", cfg.Tenure), func(t *testing.T) {
			h := heap.New(heap.WithConfig(cfg))
			var g Gen
			o := &stubOld{g: &g}
			var st heap.GCStats
			g.Init(h, h.NewSpace("nursery", 64), heap.NewEvacuator(h, nil), remset.NewHashSet(), &st, o)

			g.AllocRaw(heap.TVector, 32) // 33 words
			if o.allocs != 1 || g.Space().Top != 0 {
				t.Fatalf("a 33-word object: %d old-area allocations, nursery top %d; want 1 and 0", o.allocs, g.Space().Top)
			}
			for i := 0; i < 21; i++ {
				g.AllocRaw(heap.TPair, 2)
			}
			if o.minors != 0 || g.Space().Top != 63 {
				t.Fatalf("21 pairs: %d minors, nursery top %d; want 0 and 63", o.minors, g.Space().Top)
			}
			msg := func() (msg any) {
				defer func() { msg = recover() }()
				g.AllocRaw(heap.TPair, 2)
				return nil
			}()
			if o.minors != 1 {
				t.Fatalf("the 22nd pair ran %d minors, want 1", o.minors)
			}
			if g.shadow == nil {
				if msg != "young: nursery cannot hold 3 words" || o.majors != 0 {
					t.Errorf("wholesale, a minor that made no room: panic %v after %d majors, want the nursery's panic and no major", msg, o.majors)
				}
				return
			}
			if msg != nil || o.majors != 1 || g.Space().Top != 3 {
				t.Errorf("tenured, a minor that made no room: panic %v, %d majors, nursery top %d; want none, 1 and 3", msg, o.majors, g.Space().Top)
			}
		})
	}
}
