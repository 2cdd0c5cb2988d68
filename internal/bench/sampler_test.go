package bench

import (
	"reflect"
	"strings"
	"testing"

	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

func TestByName(t *testing.T) {
	for _, quick := range []bool{false, true} {
		names := Names(quick)
		if len(names) == 0 {
			t.Fatalf("quick=%v: empty suite", quick)
		}
		for _, name := range names {
			p, err := ByName(name, quick)
			if err != nil {
				t.Fatalf("quick=%v: %v", quick, err)
			}
			if p.Name() != name {
				t.Fatalf("quick=%v: looked up %q, got %q", quick, name, p.Name())
			}
		}
	}
	if _, err := ByName("no-such-program", true); err == nil {
		t.Fatal("unknown name did not error")
	} else if !strings.Contains(err.Error(), "no-such-program") {
		t.Fatalf("error does not name the missing program: %v", err)
	}
}

// TestSampleProfileTotals runs one quick program and checks the measured
// profile's internal consistency: totals equal the class sums, classes are
// sorted and deduplicated, and the mix is deterministic across samples.
func TestSampleProfileTotals(t *testing.T) {
	p, err := ByName("nboyer1", true)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := SampleProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Source != "nboyer1" || prof.Objects == 0 || len(prof.Classes) == 0 {
		t.Fatalf("degenerate profile: %+v", prof)
	}
	var objects, words uint64
	for i, cls := range prof.Classes {
		if cls.Count == 0 {
			t.Fatalf("class %d has zero count: %+v", i, cls)
		}
		if i > 0 && !classLess(prof.Classes[i-1], cls) {
			t.Fatalf("classes out of order at %d: %+v then %+v", i, prof.Classes[i-1], cls)
		}
		objects += cls.Count
		words += cls.Count * cls.CostWords()
	}
	if objects != prof.Objects || words != prof.Words {
		t.Fatalf("totals diverge from classes: objects %d vs %d, words %d vs %d",
			prof.Objects, objects, prof.Words, words)
	}

	again, err := SampleProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prof, again) {
		t.Fatal("profiling the same program twice gave different mixes")
	}
}

// TestSampleProfileIgnoresCollector: every quick program's profile is the
// one a growing semispace heap measures: the mix does not depend on the
// collector the sampler runs.
func TestSampleProfileIgnoresCollector(t *testing.T) {
	for _, name := range Names(true) {
		p, err := ByName(name, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SampleProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		h := heap.New()
		semispace.New(h, p.HeapWords(), semispace.WithExpansion(2))
		sink := &profileSink{counts: make(map[AllocClass]uint64)}
		h.SetEventSink(sink)
		if err := p.Run(h); err != nil {
			t.Fatal(err)
		}
		if want := BuildProfile(p.Name(), sink.counts); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the sampler's profile differs from the semispace run's:\n  %+v\n  %+v", name, got, want)
		}
	}
}

func TestBuildProfileDropsZeroCounts(t *testing.T) {
	counts := map[AllocClass]uint64{
		{Type: heap.TPair, PayloadWords: 2}:   5,
		{Type: heap.TVector, PayloadWords: 8}: 0,
	}
	prof := BuildProfile("synthetic", counts)
	if len(prof.Classes) != 1 || prof.Classes[0].Type != heap.TPair {
		t.Fatalf("zero-count class survived: %+v", prof)
	}
	if prof.Objects != 5 || prof.Words != 5*3 {
		t.Fatalf("totals wrong: %+v", prof)
	}
}
