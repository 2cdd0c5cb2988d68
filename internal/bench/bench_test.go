package bench

import (
	"strings"
	"testing"

	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

// tiny is a minimal Program for testing the harness itself.
type tiny struct{ fail bool }

func (t *tiny) Name() string   { return "tiny" }
func (t *tiny) HeapWords() int { return 4096 }
func (t *tiny) Run(h *heap.Heap) error {
	s := h.Scope()
	defer s.Close()
	for i := 0; i < 2000; i++ {
		s2 := h.Scope()
		h.Cons(h.Fix(int64(i)), h.Null())
		s2.Close()
	}
	if t.fail {
		return errFail
	}
	return nil
}

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "tiny failed" }

func TestMeasure(t *testing.T) {
	h := heap.New()
	c := semispace.New(h, 1024)
	res := Measure(&tiny{}, h, c)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.WordsAllocated != 6000 {
		t.Errorf("allocated %d words, want 6000", res.WordsAllocated)
	}
	if res.Collections == 0 {
		t.Error("no collections on a 1K-word heap")
	}
	if res.Program != "tiny" || res.Collector != "stop-and-copy" {
		t.Errorf("labels: %q %q", res.Program, res.Collector)
	}
	if res.GCMutatorRatio() < 0 {
		t.Error("negative ratio")
	}
	if !strings.Contains(res.String(), "tiny") {
		t.Errorf("String: %s", res.String())
	}
}

func TestMeasurePropagatesError(t *testing.T) {
	h := heap.New()
	c := semispace.New(h, 4096)
	res := Measure(&tiny{fail: true}, h, c)
	if res.Err == nil {
		t.Error("program error not propagated")
	}
}

func TestRunResultRatioZeroAlloc(t *testing.T) {
	var r RunResult
	if r.GCMutatorRatio() != 0 {
		t.Error("ratio with zero allocation should be 0")
	}
}

func TestRegistries(t *testing.T) {
	std, quick := Standard(), Quick()
	if len(std) < 8 {
		t.Errorf("Standard has %d programs", len(std))
	}
	if len(quick) < 6 {
		t.Errorf("Quick has %d programs", len(quick))
	}
	seen := map[string]bool{}
	for _, p := range append(std, quick...) {
		if p.Name() == "" || p.HeapWords() <= 0 {
			t.Errorf("malformed program %q", p.Name())
		}
		if seen[p.Name()] {
			t.Errorf("duplicate program name %q across a registry", p.Name())
		}
	}
}
