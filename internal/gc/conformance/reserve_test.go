package conformance

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rdgc/internal/gc/collectors"
	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

// reservedAtConstruction names the spaces each gcfuzz.CollectorsSized
// collector creates as reservations, without memory: the spaces only
// evacuation enters, and the seven steps below the one the allocation
// cursor starts on. A tenuring nursery adds its survivor to-space.
func reservedAtConstruction(name string, tenured bool) []string {
	steps := func(prefix string) []string {
		var out []string
		for i := 0; i < 8; i++ {
			out = append(out, fmt.Sprintf("%s-shadow-%d", prefix, i))
		}
		for i := 0; i < 7; i++ {
			out = append(out, fmt.Sprintf("%s-step-%d", prefix, i))
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
		want = steps("np")
	case "multigen":
		want = []string{"gen-old-B"}
	case "npms":
		want = steps("npms")
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

// allocWatch hears of each allocation's address (the other events are
// stampWitness's no-ops).
type allocWatch struct {
	*stampWitness
	alloc func(w heap.Word)
}

func (a allocWatch) EvAlloc(w heap.Word, _ heap.Type, _ int) { a.alloc(w) }

// TestReservationContract holds each of the seven collectors to the
// reservation contract, wholesale and under a tenuring nursery: right after
// construction exactly the evacuation-only spaces and the steps below the
// allocation cursor have no memory; a reservation gets its memory at
// exactly its reserved capacity (no collection here grows a space before
// entering it), from a collection that enters it or from the allocation
// that reaches it — which places its object there; and a run that collects
// often enough — minors by allocation, then eight explicit collections,
// npms's compaction period — has entered every one. The heap and the
// survivors are checked at the end.
func TestReservationContract(t *testing.T) {
	for _, tenure := range []int{1, 3} {
		for _, nc := range collectors.Grid(4096) {
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
				backed := func(by string, elsewhere func(id heap.SpaceID) bool) {
					for id, words := range reserved {
						if s := h.Spaces[id]; s.Mem != nil {
							if len(s.Mem) != words || s.Cap() != words {
								t.Errorf("%s gave %v %d words of memory; it reserved %d", by, s, len(s.Mem), words)
							}
							if elsewhere(id) {
								t.Errorf("%s gave %v its memory and placed its object elsewhere", by, s)
							}
							delete(reserved, id)
						}
					}
				}
				h.SetAfterGC(func() {
					collections++
					backed(fmt.Sprintf("collection %d", collections), func(heap.SpaceID) bool { return false })
				})
				h.SetEventSink(allocWatch{alloc: func(w heap.Word) {
					backed(fmt.Sprintf("allocation %d", h.Stats.ObjectsAllocated), func(id heap.SpaceID) bool { return id != heap.PtrSpace(w) })
				}})
				s := h.Scope()
				defer s.Close()
				list := gctest.BuildList(h, 200)
				gctest.Churn(h, 12000) // 36k words: npms's cursor reaches all eight of its 4096-word steps
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
// npms cells on nboyer-sized steps do; the other collectors' evacuation-only
// spaces stay empty through the minor collections that do not evacuate into
// them, up to the first major collection. (The steps below the cursor are
// entered by allocation and, in hybrid, by the minors that promote into
// them.) A run that never leaves the step the cursor starts on, and so
// never collects, keeps every reservation empty, the steps below it too.
func TestUnenteredReservationsStayEmpty(t *testing.T) {
	isStep := func(name string) bool { return strings.Contains(name, "-step-") }
	stayEmpty := func(t *testing.T, h *heap.Heap, c heap.Collector, want []string) {
		t.Helper()
		for _, sp := range h.Spaces {
			if slices.Contains(want, sp.Name) && sp.Mem != nil {
				t.Errorf("%v got memory in a run that never evacuated into it (%d collections)", sp, c.GCStats().Collections)
			}
		}
	}
	for _, nc := range collectors.Grid(4096) {
		t.Run(nc.Name, func(t *testing.T) {
			h := heap.New(heap.WithConfig(heap.Config{}))
			c := nc.New(h)
			want := slices.DeleteFunc(reservedAtConstruction(nc.Name, false), isStep)
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
			stayEmpty(t, h, c, want)
			gctest.CheckList(t, h, list, 300)

			t.Run("first-step", func(t *testing.T) {
				h := heap.New(heap.WithConfig(heap.Config{}))
				c := nc.New(h)
				s := h.Scope()
				defer s.Close()
				list := gctest.BuildList(h, 60) // 180 words: inside hybrid's 256-word nursery
				if n := c.GCStats().Collections; n != 0 {
					t.Fatalf("%d collections building the list", n)
				}
				stayEmpty(t, h, c, reservedAtConstruction(nc.Name, false))
				gctest.CheckList(t, h, list, 60)
				if err := heap.Check(h); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
