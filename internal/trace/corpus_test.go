package trace_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// corpusDir holds the checked-in trace corpus `make traces` regenerates.
const corpusDir = "testdata/traces"

// corpusEntry is one deterministic corpus trace.
type corpusEntry struct {
	name string
	data []byte
}

// buildCorpus regenerates the corpus from scratch: small deterministic
// mutator workloads (with and without census) plus one gcfuzz byte program
// exported through the same wiring cmd/gcfuzz -emit-trace uses. Everything
// is seeded, so the bytes are reproducible on any machine.
func buildCorpus(t *testing.T) []corpusEntry {
	t.Helper()
	mutator := func(census bool, seed int64) []byte {
		raw, _, _ := recordMutator(t, gcfuzz.Collectors()[0].New, census, seed, 400)
		return raw
	}

	// A fixed byte program through the fuzz harness's wrap hook — the
	// same wiring cmd/gcfuzz -emit-trace (and -compress) uses.
	fuzzProg := func(wopts ...trace.WriterOption) []byte {
		prog := make([]byte, 300)
		for i := range prog {
			prog[i] = byte(i*7 + 3)
		}
		var buf bytes.Buffer
		var rec *trace.Recorder
		_, err := gcfuzz.Run(prog, gcfuzz.Collectors()[0].New, false, heap.Config{},
			func(h *heap.Heap, c heap.Collector) heap.Collector {
				w, werr := trace.NewWriter(&buf, trace.Header{Meta: []trace.MetaEntry{
					{Key: "workload", Value: "gcfuzz:corpus"},
					{Key: "sizing", Value: "gcfuzz"},
				}}, wopts...)
				if werr != nil {
					t.Fatal(werr)
				}
				if rec, werr = trace.NewRecorder(h, w); werr != nil {
					t.Fatal(werr)
				}
				return rec.Collector(c)
			})
		if err != nil {
			t.Fatalf("corpus gcfuzz program failed: %v", err)
		}
		if err := rec.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	gcfuzzRaw := fuzzProg()

	// A compressed interleave of two plain sessions, so the checked-in
	// corpus pins the synthesized format (session markers, salted symbols,
	// compressed blocks) and the replay tests below cover it everywhere.
	s1, prog := mutator(false, 1), gcfuzzRaw
	var synthBuf bytes.Buffer
	in1, err := trace.NewReader(bytes.NewReader(s1))
	if err != nil {
		t.Fatal(err)
	}
	in2, err := trace.NewReader(bytes.NewReader(prog))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Interleave(&synthBuf, []*trace.Reader{in1, in2},
		trace.SynthOptions{Compress: true, Seed: 7, Chunk: 32}); err != nil {
		t.Fatalf("corpus interleave failed: %v", err)
	}

	return []corpusEntry{
		{"mutator-s1.trace", s1},
		{"mutator-s2-census.trace", mutator(true, 2)},
		{"gcfuzz-prog.trace", gcfuzzRaw},
		{"gcfuzz-prog-z.trace", fuzzProg(trace.WithCompression())},
		{"synth-interleave-z.trace", synthBuf.Bytes()},
	}
}

// TestTraceCorpus drift-guards the checked-in corpus: the traces under
// testdata/traces must equal what this source tree records today. A
// mismatch means the trace format or the event stream changed — either
// bump FormatVersion and regenerate, or fix the regression. Regenerate
// with `make traces` (RDGC_WRITE_TRACES=1).
func TestTraceCorpus(t *testing.T) {
	write := os.Getenv("RDGC_WRITE_TRACES") == "1"
	if write {
		if err := os.MkdirAll(corpusDir, 0o777); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range buildCorpus(t) {
		path := filepath.Join(corpusDir, e.name)
		if write {
			if err := os.WriteFile(path, e.data, 0o666); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", path, len(e.data))
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (set RDGC_WRITE_TRACES=1 to regenerate)", err)
		}
		if !bytes.Equal(got, e.data) {
			t.Errorf("%s drifted from this tree's recording: %d bytes on disk, %d regenerated (set RDGC_WRITE_TRACES=1 to regenerate)",
				path, len(got), len(e.data))
		}
	}
}

// TestCorpusReplaysEverywhere replays every checked-in corpus trace under
// all seven collectors with the deep verifier on — so the corpus also
// pins replay compatibility, not just codec bytes.
func TestCorpusReplaysEverywhere(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no corpus traces in %s (run `make traces`)", corpusDir)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, nc := range gcfuzz.Collectors() {
			t.Run(fmt.Sprintf("%s/%s", filepath.Base(path), nc.Name), func(t *testing.T) {
				rd, err := trace.NewReader(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				var opts []heap.Option
				if rd.Header().Census {
					opts = append(opts, heap.WithCensus())
				}
				h := heap.New(opts...)
				c := nc.New(h)
				if _, err := trace.Replay(rd, h, c, trace.ReplayOptions{Verify: true}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
