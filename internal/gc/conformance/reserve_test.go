package conformance

import (
	"fmt"
	"slices"
	"testing"

	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

// reservedAtConstruction names the spaces each gcfuzz.CollectorsSized
// collector creates as reservations, without memory: the spaces only
// evacuation enters. A tenuring nursery adds its survivor to-space.
func reservedAtConstruction(name string, tenured bool) []string {
	shadows := func(prefix string) []string {
		var out []string
		for i := 0; i < 8; i++ {
			out = append(out, fmt.Sprintf("%s-shadow-%d", prefix, i))
		}
		return out
	}
	var want []string
	switch name {
	case "semispace":
		want = []string{"semispace-B"}
	case "generational":
		want = []string{"old-B"}
	case "nonpredictive", "hybrid":
		want = shadows("np")
	case "multigen":
		want = []string{"gen-old-B"}
	case "npms":
		want = shadows("npms")
	}
	if tenured {
		switch name {
		case "generational", "hybrid":
			want = append(want, "nursery-to")
		case "multigen":
			want = append(want, "gen-0-to")
		}
	}
	slices.Sort(want)
	return want
}

// TestReservationContract holds each of the seven collectors to the
// reservation contract, wholesale and under a tenuring nursery: right after
// construction exactly the evacuation-only spaces have no memory; a
// reservation gets its memory inside a collection, at exactly its reserved
// capacity (no collection here grows a space before entering it); and a run
// that collects often enough — minors by allocation, then eight explicit
// collections, npms's compaction period — has entered every one. The heap
// and the survivors are checked at the end.
func TestReservationContract(t *testing.T) {
	for _, tenure := range []int{1, 3} {
		for _, nc := range gcfuzz.CollectorsSized(4096) {
			t.Run(fmt.Sprintf("%s/tenure=%d", nc.Name, tenure), func(t *testing.T) {
				h := heap.New(heap.WithConfig(heap.Config{Tenure: tenure}))
				c := nc.New(h)
				var got []string
				reserved := map[heap.SpaceID]int{} // reservations not yet given memory
				for _, s := range h.Spaces {
					if s.Mem == nil {
						got = append(got, s.Name)
						reserved[s.ID] = s.Cap()
					} else if len(s.Mem) != s.Cap() {
						t.Errorf("%v: %d words of memory", s, len(s.Mem))
					}
				}
				slices.Sort(got)
				if want := reservedAtConstruction(nc.Name, tenure > 1); !slices.Equal(got, want) {
					t.Fatalf("reservations after construction: %q, want %q", got, want)
				}
				if h.FootprintWords() == 0 {
					t.Fatal("no footprint")
				}

				collections := 0
				h.SetAfterGC(func() {
					collections++
					for id, words := range reserved {
						if s := h.Spaces[id]; s.Mem != nil {
							if len(s.Mem) != words || s.Cap() != words {
								t.Errorf("collection %d gave %v %d words of memory; it reserved %d", collections, s, len(s.Mem), words)
							}
							delete(reserved, id)
						}
					}
				})
				s := h.Scope()
				defer s.Close()
				list := gctest.BuildList(h, 200)
				gctest.Churn(h, 2000)
				for i := 0; i < 8; i++ {
					c.Collect()
				}
				for id := range reserved {
					t.Errorf("%v was never entered", h.Spaces[id])
				}
				gctest.CheckList(t, h, list, 200)
				if err := heap.Check(h); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestUnenteredReservationsStayEmpty: a run that never enters a reservation
// never gives it memory. npms compacts at every 8th collection, so a run of
// fewer keeps all eight shadows without memory, as the benchmark grid's
// npms cells on nboyer-sized steps do; the other collectors' reservations
// stay empty through the minor collections that do not evacuate into them,
// up to the first major collection.
func TestUnenteredReservationsStayEmpty(t *testing.T) {
	for _, nc := range gcfuzz.CollectorsSized(4096) {
		t.Run(nc.Name, func(t *testing.T) {
			h := heap.New(heap.WithConfig(heap.Config{}))
			c := nc.New(h)
			want := reservedAtConstruction(nc.Name, false)
			s := h.Scope()
			defer s.Close()
			list := gctest.BuildList(h, 300)
			if nc.Name == "npms" {
				for i := 0; i < 7; i++ {
					c.Collect()
				}
			} else if n := c.GCStats().MajorCollections; n != 0 {
				t.Fatalf("%d major collections building the list", n)
			}
			for _, sp := range h.Spaces {
				if slices.Contains(want, sp.Name) && sp.Mem != nil {
					t.Errorf("%v got memory in a run that never evacuated into it (%d collections)", sp, c.GCStats().Collections)
				}
			}
			gctest.CheckList(t, h, list, 300)
		})
	}
}
