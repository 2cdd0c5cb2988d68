package trace_test

import (
	"bytes"
	"io"
	"testing"

	"rdgc/internal/decay"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// TestNextZeroAllocsOverDecayCorpus pins the Reader's doc comment on a real
// stream rather than a uniform one: over the amplified decay corpus (no
// intern events), raw and compressed, Next does not allocate once the first
// blocks have sized its buffers.
func TestNextZeroAllocsOverDecayCorpus(t *testing.T) {
	raw, comp, events := decayCorpus(t)
	const warm, batch, runs = 100000, 50000, 10
	if events < warm+batch*(runs+1) {
		t.Fatalf("corpus of %d events is too short for the guard", events)
	}
	for _, form := range []struct {
		name string
		data []byte
	}{{"raw", raw}, {"compressed", comp}} {
		rd, err := trace.NewReader(bytes.NewReader(form.data))
		if err != nil {
			t.Fatal(err)
		}
		var ev trace.Event
		next := func(n int) {
			for i := 0; i < n; i++ {
				if err := rd.Next(&ev); err != nil {
					t.Fatal(err)
				}
			}
		}
		next(warm)
		if allocs := testing.AllocsPerRun(runs, func() { next(batch) }); allocs != 0 {
			t.Errorf("%s: Next allocates %.0f objects per %d events, want 0", form.name, allocs, batch)
		}
	}
}

// TestReplayAllocatesPerSpaceNotPerObject: a whole replay cell — reader,
// heap, collector, Replay — of the amplified decay corpus allocates a
// number of Go objects set by the spaces it touches and the doublings of
// the ID → address slice, not by the third of a million objects it names.
// Each ceiling is about a third above what the identity tables measure
// (116, 131 and 237 objects) and well below what the address maps they
// replaced cost on the same corpus (437, 789 and 555), so a map cannot
// come back unnoticed.
func TestReplayAllocatesPerSpaceNotPerObject(t *testing.T) {
	_, comp, _ := decayCorpus(t)
	for _, tc := range []struct {
		collector string
		ceiling   float64
	}{{"semispace", 160}, {"generational", 180}, {"nonpredictive", 300}} {
		nc := decayCollector(t, tc.collector)
		allocs := testing.AllocsPerRun(2, func() {
			rd, err := trace.NewReader(bytes.NewReader(comp))
			if err != nil {
				t.Fatal(err)
			}
			h := heap.New()
			if _, err := trace.Replay(rd, h, nc.New(h), trace.ReplayOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f Go objects per replay", tc.collector, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: a replay allocates %.0f Go objects, ceiling %.0f", tc.collector, allocs, tc.ceiling)
		}
	}
}

// TestRecorderSteadyStateZeroAllocs guards the recording path: once a
// recorder is warm — its writer's block buffers sized by the first sealed
// blocks — recording decay steps, which intern nothing, allocates no Go
// objects, raw or compressed. The heap, the collector, the event sink and
// the encoders all run in space they already hold.
func TestRecorderSteadyStateZeroAllocs(t *testing.T) {
	const warm, batch, runs = 20000, 2000, 10
	for _, form := range writeForms {
		words := decayHeapWords(warm + batch*(runs+1))
		h := heap.New()
		semispace.New(h, words)
		tw, err := trace.NewWriter(io.Discard, trace.Header{}, form.opts...)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := trace.NewRecorder(h, tw)
		if err != nil {
			t.Fatal(err)
		}
		w := decay.NewWorkload(h, decayHalfLife, 1)
		w.Warmup(10)
		w.Run(warm)
		if allocs := testing.AllocsPerRun(runs, func() { w.Run(batch) }); allocs != 0 {
			t.Errorf("%s: recording %d decay steps allocates %.1f objects, want 0", form.name, batch, allocs)
		}
		if err := rec.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}
