package bench

// This file exports the registry in per-request form: name-based lookup of
// the benchmark programs (previously reachable only by iterating the whole
// suite inside an experiment entry point) and AllocProfile, the measured
// allocation mix of one program run. The server simulation (internal/serve)
// and any future driver that needs "a slice of nboyer's allocation
// behavior" samples these profiles instead of duplicating program tables.

import (
	"fmt"

	"rdgc/internal/gc/marksweep"
	"rdgc/internal/heap"
)

// suite returns the standard or quick program table.
func suite(quick bool) []Program {
	if quick {
		return Quick()
	}
	return Standard()
}

// suiteName names the table for error messages.
func suiteName(quick bool) string {
	if quick {
		return "quick"
	}
	return "standard"
}

// Names lists the registry programs of the chosen suite, in suite order.
func Names(quick bool) []string {
	progs := suite(quick)
	names := make([]string, len(progs))
	for i, p := range progs {
		names[i] = p.Name()
	}
	return names
}

// ByName returns the registry program with the given name from the standard
// suite (or, with quick, the reduced-scale instances). Program values are
// cheap to construct and single-use state lives in Run, so the returned
// Program can be run directly.
func ByName(name string, quick bool) (Program, error) {
	for _, p := range suite(quick) {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("bench: no program %q in the %s suite (have %v)",
		name, suiteName(quick), Names(quick))
}

// AllocClass is one (object type, payload size) allocation class: the
// granularity at which a request handler can re-enact a program's
// allocation behavior without re-running the program.
type AllocClass struct {
	Type         heap.Type
	PayloadWords int
	Count        uint64
}

// CostWords is the heap cost of allocating one object of this class on a
// census-free heap: header plus payload.
func (c AllocClass) CostWords() uint64 { return uint64(1 + c.PayloadWords) }

// AllocProfile is the measured allocation mix of one program run: every
// allocation class with its exact count, plus the run totals. Profiles are
// immutable once built, so one profile can be sampled concurrently by many
// shards.
type AllocProfile struct {
	// Source names where the mix came from (a registry program name, or a
	// trace path for profiles built by internal/serve from recorded runs).
	Source string
	// Classes is sorted by (Type, PayloadWords) for deterministic iteration.
	Classes []AllocClass
	// Objects and Words total the run: Words counts header+payload per
	// object (no census stamps), i.e. the sum of Count*CostWords.
	Objects uint64
	Words   uint64
}

// profileSink tallies EvAlloc events; every other mutator event is noise
// for profiling purposes.
type profileSink struct {
	counts map[AllocClass]uint64
}

func (s *profileSink) EvAlloc(_ heap.Word, t heap.Type, payloadWords int) {
	s.counts[AllocClass{Type: t, PayloadWords: payloadWords}]++
}
func (s *profileSink) EvStore(heap.Word, int, heap.Word) {}
func (s *profileSink) EvFill(heap.Word, heap.Word)       {}
func (s *profileSink) EvRaw(heap.Word, int, uint64)      {}
func (s *profileSink) EvIntern(heap.Word, string)        {}
func (s *profileSink) EvRootPush(heap.Word)              {}
func (s *profileSink) EvRootPopTo(int)                   {}
func (s *profileSink) EvRootSet(heap.Ref, heap.Word)     {}
func (s *profileSink) EvGlobal(heap.Word)                {}

// BuildProfile assembles a profile from raw class counts, normalizing the
// class order and totals. Classes with zero count are dropped.
func BuildProfile(source string, counts map[AllocClass]uint64) AllocProfile {
	p := AllocProfile{Source: source}
	for cls, n := range counts {
		if n == 0 {
			continue
		}
		cls.Count = n
		p.Classes = append(p.Classes, cls)
		p.Objects += n
		p.Words += n * cls.CostWords()
	}
	sortClasses(p.Classes)
	return p
}

func sortClasses(cs []AllocClass) {
	// Insertion sort: class counts are small (tens), and this keeps the
	// file free of a sort import for one call site.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && classLess(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func classLess(a, b AllocClass) bool {
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	return a.PayloadWords < b.PayloadWords
}

// SampleProfile runs p once on a private scratch heap and tallies its
// allocation mix. The run is deterministic, so the profile is too; callers
// cache it and sample it many times. Allocation is mutator-driven, so any
// collector yields the same mix (TestSampleProfileIgnoresCollector); a
// growing mark/sweep heap is the one that holds the least memory, with no
// to-space beside its live data.
func SampleProfile(p Program) (AllocProfile, error) {
	h := heap.New()
	marksweep.New(h, p.HeapWords(), marksweep.WithExpansion(2))
	sink := &profileSink{counts: make(map[AllocClass]uint64)}
	h.SetEventSink(sink)
	if err := p.Run(h); err != nil {
		return AllocProfile{}, fmt.Errorf("bench: profiling %s: %w", p.Name(), err)
	}
	h.SetEventSink(nil)
	return BuildProfile(p.Name(), sink.counts), nil
}
