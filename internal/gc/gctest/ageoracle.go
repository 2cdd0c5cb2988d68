package gctest

import (
	"fmt"

	"rdgc/internal/heap"
)

// AgeOracle is a shadow model for the header ages of heap/tenure.go: it
// counts, per live object, the nursery collections the object has survived,
// reading only the heap's identity table — never the collector's own age
// metadata — and then demands that the headers agree exactly. Any
// divergence (an age not incremented on retention, not cleared on reuse, or
// attached to the wrong object) is reported.
//
// Model: after every collection the oracle looks up where each object in
// the Tenurer's young spaces was when it last looked. An ordinal whose
// address changed into a young space was retained, and its age advances by
// one (saturating at heap.MaxObjectAge); one seen for the first time was
// born in the nursery of the last look, so finding it in the other young
// space is a retention too. An ordinal no longer found in a young space was
// promoted or died, and leaves the model. One collection moves a survivor
// at most once, which is why Collected must run after every one of them.
type AgeOracle struct {
	h       *heap.Heap
	ten     heap.Tenurer
	nursery *heap.Space // where objects were being born at the last look
	seen    map[uint64]aged
}

// aged is one young object as the oracle last saw it.
type aged struct {
	addr heap.Word
	age  int
}

// InstallAgeOracle attaches an oracle to the pristine heap h, whose
// collector must implement heap.Tenurer, and switches the heap's identity
// table on. The oracle is a reader: it shares the table with a trace
// recorder or replayer.
func InstallAgeOracle(h *heap.Heap, ten heap.Tenurer) *AgeOracle {
	h.TrackIdentity()
	return &AgeOracle{h: h, ten: ten, nursery: ten.YoungSpaces()[0], seen: map[uint64]aged{}}
}

// eachYoung calls f for every object of the young spaces that the identity
// table knows (one allocated before the oracle was installed has no
// identity) until f returns false.
func (o *AgeOracle) eachYoung(f func(s *heap.Space, w, hdr heap.Word, id uint64) bool) {
	for _, s := range o.ten.YoungSpaces() {
		more := true
		heap.WalkSpace(s, func(off int, hdr heap.Word) bool {
			w := heap.PtrWord(s.ID, off)
			if id, ok := o.h.IDOf(w); ok {
				more = f(s, w, hdr, id)
			}
			return more
		})
		if !more {
			return
		}
	}
}

// Collected brings the model up to date with the collection that has just
// finished. Call it from the heap's SetAfterGC hook, after every collection.
func (o *AgeOracle) Collected() {
	next := make(map[uint64]aged, len(o.seen))
	o.eachYoung(func(s *heap.Space, w, _ heap.Word, id uint64) bool {
		was, known := o.seen[id]
		moved := was.addr != w
		if !known {
			moved = s != o.nursery
		}
		if moved {
			was.age = min(was.age+1, heap.MaxObjectAge)
		}
		next[id] = aged{addr: w, age: was.age}
		return true
	})
	o.seen = next
	o.nursery = o.ten.YoungSpaces()[0]
}

// Check compares the header age of every object of the young spaces against
// the model (an object born since the last collection is absent, age 0).
func (o *AgeOracle) Check() (err error) {
	o.eachYoung(func(s *heap.Space, w, hdr heap.Word, id uint64) bool {
		if got, want := heap.HeaderAge(hdr), o.seen[id].age; got != want {
			err = fmt.Errorf("age oracle: object #%d at %q+%d has header age %d, oracle says %d",
				id, s.Name, heap.PtrOff(w), got, want)
		}
		return err == nil
	})
	return err
}

// Ages exposes the oracle's model (object ID -> survived collections, for
// the objects it has seen retained): tests assert from it that a workload
// exercised retention at all, and pick entries to corrupt.
func (o *AgeOracle) Ages() map[uint64]int {
	ages := make(map[uint64]int)
	for id, a := range o.seen {
		if a.age > 0 {
			ages[id] = a.age
		}
	}
	return ages
}
