// Conformance tests for the heap's identity table (heap/identity.go): the
// engines carry an object's entry with every copy, so whatever a collector
// does, the heap named by allocation ordinals is the heap the mutator built.
package conformance

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

// stampWitness is an identity the table has no part in: on a census heap an
// object's birth stamp is unique and travels in its payload, so a sink that
// counts allocation events — as the trace recorder's writer does — and files
// each count under the new object's stamp knows every object's ordinal
// wherever the object goes.
type stampWitness struct {
	h       *heap.Heap
	ordinal map[uint64]uint64
}

func (s *stampWitness) EvAlloc(w heap.Word, _ heap.Type, _ int) {
	s.ordinal[s.h.BirthStamp(w)] = uint64(len(s.ordinal))
}
func (s *stampWitness) EvStore(heap.Word, int, heap.Word) {}
func (s *stampWitness) EvFill(heap.Word, heap.Word)       {}
func (s *stampWitness) EvRaw(heap.Word, int, uint64)      {}
func (s *stampWitness) EvIntern(heap.Word, string)        {}
func (s *stampWitness) EvRootPush(heap.Word)              {}
func (s *stampWitness) EvRootPopTo(int)                   {}
func (s *stampWitness) EvRootSet(heap.Ref, heap.Word)     {}
func (s *stampWitness) EvGlobal(heap.Word)                {}

// checkTable is run after every collection. Over the spaces the collector
// declares live, every object resolves to an ordinal that resolves back to
// it; over every entry of every space — live, dead or never used — an
// address that resolves at all resolves to an ordinal that lives there, so
// no dead address names a live object.
func checkTable(h *heap.Heap, c heap.Collector) error {
	live := h.Spaces
	if v, ok := c.(heap.Verifiable); ok && v.VerifySpec().Live != nil {
		live = v.VerifySpec().Live
	}
	var err error
	for _, s := range live {
		heap.WalkSpace(s, func(off int, hdr heap.Word) bool {
			if heap.HeaderType(hdr) == heap.TFree {
				return true
			}
			w := heap.PtrWord(s.ID, off)
			id, ok := h.IDOf(w)
			if at, _ := h.AddrOf(id); !ok || at != w {
				err = fmt.Errorf("object at %q+%d: IDOf = #%d, %v; AddrOf(#%d) = %#x", s.Name, off, id, ok, id, uint64(at))
			}
			return err == nil
		})
	}
	for _, s := range h.Spaces {
		for off := 0; off < s.Cap() && err == nil; off++ {
			w := heap.PtrWord(s.ID, off)
			if id, ok := h.IDOf(w); ok {
				if at, _ := h.AddrOf(id); at != w {
					err = fmt.Errorf("%q+%d resolves to #%d, which lives at %#x", s.Name, off, id, uint64(at))
				}
			}
		}
	}
	return err
}

// ordinalGraph renders everything reachable from the roots with every
// pointer replaced by the ordinal of its referent: root slots in order, then
// one line per object, by ordinal. Addresses, and so collectors and census
// words, do not show in it; a carry that drops, swaps or
// misplaces one entry does. With a witness, each object's ordinal is also
// held to the one its birth stamp was filed under.
func ordinalGraph(t *testing.T, h *heap.Heap, witness *stampWitness) string {
	t.Helper()
	var b strings.Builder
	lines := map[uint64]string{}
	var todo []heap.Word
	name := func(w heap.Word) string {
		if !heap.IsPtr(w) {
			return fmt.Sprintf("%x", uint64(w))
		}
		id, ok := h.IDOf(w)
		if at, _ := h.AddrOf(id); !ok || at != w {
			t.Fatalf("reachable object at %#x: IDOf = #%d, %v; AddrOf(#%d) = %#x", uint64(w), id, ok, id, uint64(at))
		}
		if _, seen := lines[id]; !seen {
			lines[id] = ""
			todo = append(todo, w)
		}
		return fmt.Sprintf("#%d", id)
	}
	h.VisitRoots(func(slot *heap.Word) { b.WriteString(name(*slot) + " ") })
	for len(todo) > 0 {
		w := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		id, _ := h.IDOf(w)
		hdr := h.Header(w)
		if witness != nil {
			if want, ok := witness.ordinal[h.BirthStamp(w)]; !ok || want != id {
				t.Fatalf("object #%d was allocation %d (%v) by its birth stamp", id, want, ok)
			}
		}
		line := fmt.Sprintf("\n#%d t%d", id, heap.HeaderType(hdr))
		for _, p := range h.Payload(w) {
			if heap.RawPayload(heap.HeaderType(hdr)) {
				line += fmt.Sprintf(" %x", uint64(p))
			} else {
				line += " " + name(p)
			}
		}
		lines[id] = line
	}
	ids := make([]uint64, 0, len(lines))
	for id := range lines {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		b.WriteString(lines[id])
	}
	return b.String()
}

// runIdentified drives the conformance workload with the identity table on,
// checkTable after every collection, and returns the ordinal graph at each
// quarter mark (after a forced collection) and at the end.
func runIdentified(t *testing.T, mk func(h *heap.Heap) heap.Collector, census bool, tenure int) []string {
	t.Helper()
	h := newHeap(heap.Config{Tenure: tenure}, census)
	c := mk(h)
	h.TrackIdentity()
	var witness *stampWitness
	if census {
		witness = &stampWitness{h: h, ordinal: map[uint64]uint64{}}
		h.SetEventSink(witness)
	}
	var gcErr error
	h.SetAfterGC(func() {
		if gcErr == nil {
			gcErr = heap.VerifyCollector(h, c)
		}
		if gcErr == nil {
			gcErr = checkTable(h, c)
		}
	})
	defer h.SetAfterGC(nil)

	src := rand.New(rand.NewSource(5))
	m := gctest.NewMutator(h, src)
	var graphs []string
	for op := 0; op < ops; op++ {
		m.Op(src.Intn(gctest.NumOps))
		forced := op%(ops/4) == ops/4-1
		if forced {
			c.Collect()
		}
		if gcErr != nil {
			t.Fatalf("op %d: %v", op, gcErr)
		}
		if forced {
			graphs = append(graphs, ordinalGraph(t, h, witness))
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	return graphs
}

// TestIdentityCarried: every collector × census × wholesale/tenured. After
// every collection the table passes checkTable; at five points of the run
// the heap named by ordinals is, line for line, the one a stop-and-copy run
// names — whose ordinals the birth stamps vouch for, as they do in every
// census run here.
func TestIdentityCarried(t *testing.T) {
	all := allCollectors()
	want := runIdentified(t, all["semispace"], true, 1)
	if !strings.Contains(want[len(want)-1], "\n#") {
		t.Fatal("the reference run ends with nothing reachable")
	}
	for name, mk := range all {
		for _, census := range []bool{false, true} {
			for _, tenure := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/census=%v/tenure=%d", name, census, tenure), func(t *testing.T) {
					got := runIdentified(t, mk, census, tenure)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("at quarter %d the heap named by ordinals differs from the reference run's:\n%s",
								i+1, firstDifference(got[i], want[i]))
						}
					}
				})
			}
		}
	}
}

// firstDifference shows the first line two ordinal graphs disagree on.
func firstDifference(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("  got  %.200s\n  want %.200s", g[i], w[i])
		}
	}
	return fmt.Sprintf("  got %d lines, want %d", len(g), len(w))
}
