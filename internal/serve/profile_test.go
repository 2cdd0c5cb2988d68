package serve

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rdgc/internal/bench"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

func TestResolveProfilesRegistry(t *testing.T) {
	ps, err := ResolveProfiles([]string{"nboyer1", "nucleic2"})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if p.Objects == 0 || len(p.Classes) == 0 {
			t.Fatalf("profile %d degenerate: %+v", i, p.AllocProfile)
		}
	}
	if ps[0].Source != "nboyer1" || ps[1].Source != "nucleic2" {
		t.Fatalf("sources wrong: %q, %q", ps[0].Source, ps[1].Source)
	}
	if _, err := ResolveProfiles([]string{"no-such-workload"}); err == nil {
		t.Fatal("unknown profile name accepted")
	}
}

// TestPickDistribution checks weighted sampling: pick frequencies converge
// to the class counts, and every pick is a class of the profile.
func TestPickDistribution(t *testing.T) {
	prof, err := newProfile(bench.BuildProfile("synthetic", map[bench.AllocClass]uint64{
		{Type: heap.TPair, PayloadWords: 2}:    1,
		{Type: heap.TVector, PayloadWords: 10}: 3,
		{Type: heap.TFlonum, PayloadWords: 1}:  6,
	}))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	r := newRNG(mix(1, 0x91c4))
	got := make(map[bench.AllocClass]float64)
	for i := 0; i < n; i++ {
		cls := prof.pick(r)
		cls.Count = 0 // compare by identity, not by the profile's count
		got[cls]++
	}
	if len(got) != len(prof.Classes) {
		t.Fatalf("picked %d distinct classes, profile has %d", len(got), len(prof.Classes))
	}
	for _, cls := range prof.Classes {
		want := float64(cls.Count) / float64(prof.Objects)
		key := cls
		key.Count = 0
		if frac := got[key] / n; math.Abs(frac-want) > 0.01 {
			t.Fatalf("class %+v picked %.3f of draws, want %.3f", cls, frac, want)
		}
	}
}

// TestProfileFromTrace builds a profile from a synthesized recorded trace —
// exact per-class counts, non-allocation events ignored — and runs the
// server on it, closing the trace->profile->load loop.
func TestProfileFromTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "synthetic.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.Header{})
	if err != nil {
		t.Fatal(err)
	}
	var words, objects uint64
	for i := 0; i < 40; i++ {
		ev := trace.Event{Kind: trace.KindAlloc, Type: heap.TPair, Size: 2}
		if i%4 == 0 {
			ev = trace.Event{Kind: trace.KindAlloc, Type: heap.TVector, Size: 6}
		}
		if err := w.Append(&ev); err != nil {
			t.Fatal(err)
		}
		words += uint64(1 + ev.Size)
		objects++
	}
	for _, ev := range []trace.Event{{Kind: trace.KindPush, Val: trace.Imm(heap.NullWord)}, {Kind: trace.KindCollect}} {
		if err := w.Append(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(trace.Trailer{WordsAllocated: words, ObjectsAllocated: objects, Events: w.Events()}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	prof, err := ProfileFromTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []bench.AllocClass{{Type: heap.TPair, PayloadWords: 2, Count: 30}, {Type: heap.TVector, PayloadWords: 6, Count: 10}}
	if prof.Objects != 40 || !slices.Equal(prof.Classes, want) {
		t.Fatalf("census %d objects in %+v, want 40 in %+v", prof.Objects, prof.Classes, want)
	}
	if !strings.HasPrefix(prof.Source, TracePrefix) {
		t.Fatalf("trace profile source %q lacks the %q prefix", prof.Source, TracePrefix)
	}

	cfg := smallConfig()
	cfg.Load.Profiles = []string{TracePrefix + path}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Requests == 0 || res.Agg.WordsAlloc == 0 {
		t.Fatalf("trace-profiled run did no work: %+v", res.Agg)
	}
}

// TestProfileFromTruncatedTrace: a trace cut off mid-stream is an error,
// not a silently partial census.
func TestProfileFromTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := w.Append(&trace.Event{Kind: trace.KindAlloc, Type: heap.TPair, Size: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(trace.Trailer{WordsAllocated: 6000, ObjectsAllocated: 2000, Events: 2000}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.trace")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-7], 0o666); err != nil {
		t.Fatal(err)
	}
	if prof, err := ProfileFromTrace(path); err == nil {
		t.Fatalf("truncated trace produced a census of %d objects without error", prof.Objects)
	}
}

// TestProfileFromSynthesizedCorpus feeds the server a synthesized
// multi-session corpus — amplified and block-compressed — through the
// same trace:PATH profile hook, proving synthetic corpora drop into the
// serving stack unchanged.
func TestProfileFromSynthesizedCorpus(t *testing.T) {
	var base bytes.Buffer
	w, err := trace.NewWriter(&base, trace.Header{})
	if err != nil {
		t.Fatal(err)
	}
	var words, objects uint64
	for i := 0; i < 30; i++ {
		ev := trace.Event{Kind: trace.KindAlloc, Type: heap.TPair, Size: 2}
		if i%3 == 0 {
			ev = trace.Event{Kind: trace.KindAlloc, Type: heap.TVector, Size: 5}
		}
		if err := w.Append(&ev); err != nil {
			t.Fatal(err)
		}
		words += uint64(1 + ev.Size)
		objects++
	}
	if err := w.Close(trace.Trailer{WordsAllocated: words, ObjectsAllocated: objects, Events: objects}); err != nil {
		t.Fatal(err)
	}

	const n = 25
	var corpus bytes.Buffer
	if _, err := trace.Amplify(&corpus, base.Bytes(), n, trace.SynthOptions{Compress: true, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.trace")
	if err := os.WriteFile(path, corpus.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}

	prof, err := ProfileFromTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Objects != n*objects || len(prof.Classes) != 2 {
		t.Fatalf("corpus census wrong: objects %d (want %d), %d classes",
			prof.Objects, n*objects, len(prof.Classes))
	}

	cfg := smallConfig()
	cfg.Load.Profiles = []string{TracePrefix + path}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Requests == 0 || res.Agg.WordsAlloc == 0 {
		t.Fatalf("corpus-profiled run did no work: %+v", res.Agg)
	}
}
