package trace_test

import (
	"bytes"
	"io"
	"strconv"
	"sync"
	"testing"

	"rdgc/internal/decay"
	"rdgc/internal/experiments"
	"rdgc/internal/gc/collectors"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// The benchmarks and allocation guards share one corpus, a scaled-down
// copy of the benchmark harness's trace-replay input: a decay session
// (half-life 768 at L = 3.5) recorded under stop-and-copy and amplified
// into interleaved sessions, raw and compressed.
const (
	decayHalfLife  = 768
	decayBaseSteps = 20000
	decaySessions  = 4
)

func decayHeapWords(steps int) int {
	return experiments.DecayConfig{HalfLife: decayHalfLife, L: 3.5, Steps: steps}.HeapWords()
}

// recordDecay records a decay session of the given length into out and
// returns the number of events written.
func recordDecay(tb testing.TB, out io.Writer, steps int, wopts ...trace.WriterOption) uint64 {
	tb.Helper()
	words := decayHeapWords(steps)
	h := heap.New()
	semispace.New(h, words)
	tw, err := trace.NewWriter(out, trace.Header{Meta: []trace.MetaEntry{
		{Key: "workload", Value: "decay-" + strconv.Itoa(decayHalfLife)},
		{Key: "heap_words", Value: strconv.Itoa(words)},
	}}, wopts...)
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := trace.NewRecorder(h, tw)
	if err != nil {
		tb.Fatal(err)
	}
	w := decay.NewWorkload(h, decayHalfLife, 1)
	w.Warmup(10)
	w.Run(steps)
	if err := rec.Finish(); err != nil {
		tb.Fatal(err)
	}
	return tw.Events()
}

// decayCorpusData is the shared corpus: the recorded base session and its
// amplification, raw and compressed.
type decayCorpusData struct {
	sync.Once
	base, raw, comp []byte
	events          uint64
	err             error
}

var decayCorpusOnce decayCorpusData

// decayCorpus returns the amplified corpus, raw and compressed, and its
// event count.
func decayCorpus(tb testing.TB) (raw, comp []byte, events uint64) {
	tb.Helper()
	c := decayCorpusBuilt(tb)
	return c.raw, c.comp, c.events
}

// decayBase returns the recorded session the corpus amplifies.
func decayBase(tb testing.TB) []byte {
	tb.Helper()
	return decayCorpusBuilt(tb).base
}

func decayCorpusBuilt(tb testing.TB) *decayCorpusData {
	tb.Helper()
	c := &decayCorpusOnce
	c.Do(func() {
		var base, plain, z bytes.Buffer
		recordDecay(tb, &base, decayBaseSteps)
		var tr trace.Trailer
		if tr, c.err = trace.Amplify(&plain, base.Bytes(), decaySessions, trace.SynthOptions{Seed: 1}); c.err != nil {
			return
		}
		_, c.err = trace.Amplify(&z, base.Bytes(), decaySessions, trace.SynthOptions{Seed: 1, Compress: true})
		c.base, c.raw, c.comp, c.events = base.Bytes(), plain.Bytes(), z.Bytes(), tr.Events
	})
	if c.err != nil {
		tb.Fatal(c.err)
	}
	return c
}

// decayCollector picks one of the growing collectors the harness replays
// under, sized for the whole corpus.
func decayCollector(tb testing.TB, name string) collectors.Named {
	tb.Helper()
	nc, err := collectors.Pick(collectors.Grid(decayHeapWords(decayBaseSteps)*decaySessions), name)
	if err != nil {
		tb.Fatal(err)
	}
	return nc
}

func reportPerEvent(b *testing.B, events uint64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
}

func BenchmarkReaderNext(b *testing.B) {
	raw, comp, events := decayCorpus(b)
	for _, form := range []struct {
		name string
		data []byte
	}{{"raw", raw}, {"compressed", comp}} {
		b.Run(form.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rd, err := trace.NewReader(bytes.NewReader(form.data))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rd.Drain(); err != nil {
					b.Fatal(err)
				}
			}
			reportPerEvent(b, events)
		})
	}
}

// BenchmarkReplay replays the corpus raw, where decode is the whole read
// side, and compressed, where decompression joins it.
func BenchmarkReplay(b *testing.B) {
	raw, comp, events := decayCorpus(b)
	for _, form := range []struct {
		name string
		data []byte
	}{{"raw", raw}, {"compressed", comp}} {
		for _, name := range []string{"semispace", "generational"} {
			nc := decayCollector(b, name)
			b.Run(form.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rd, err := trace.NewReader(bytes.NewReader(form.data))
					if err != nil {
						b.Fatal(err)
					}
					h := heap.New()
					if _, err := trace.Replay(rd, h, nc.New(h), trace.ReplayOptions{}); err != nil {
						b.Fatal(err)
					}
				}
				reportPerEvent(b, events)
			})
		}
	}
}

// writeForms are the two forms the write benchmarks produce.
var writeForms = []struct {
	name string
	opts []trace.WriterOption
	syn  trace.SynthOptions
}{
	{"raw", nil, trace.SynthOptions{Seed: 1}},
	{"compressed", []trace.WriterOption{trace.WithCompression()}, trace.SynthOptions{Seed: 1, Compress: true}},
}

// BenchmarkRecorder records a decay session as long as the amplified
// corpus, through the heap's event sink into a discarding writer.
func BenchmarkRecorder(b *testing.B) {
	for _, form := range writeForms {
		b.Run(form.name, func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				events = recordDecay(b, io.Discard, decayBaseSteps*decaySessions, form.opts...)
			}
			reportPerEvent(b, events)
		})
	}
}

// BenchmarkAmplify synthesizes amplified corpora into a discarding writer:
// decode, merge, encode and, in the compressed form, compress. n4 is the
// shared corpus, n16 the benchmark harness's trace-write shape over the
// same base, and n1000 the 1000-session golden recipe, where the base is
// short and the sessions many.
func BenchmarkAmplify(b *testing.B) {
	decay := decayBase(b)
	for _, c := range []struct {
		name     string
		base     []byte
		sessions int
	}{
		{"n4", decay, decaySessions},
		{"n16", decay, 16},
		{"n1000", base1k(b), sessions1k},
	} {
		for _, form := range writeForms {
			b.Run(c.name+"/"+form.name, func(b *testing.B) {
				var events uint64
				for i := 0; i < b.N; i++ {
					tr, err := trace.Amplify(io.Discard, c.base, c.sessions, form.syn)
					if err != nil {
						b.Fatal(err)
					}
					events = tr.Events
				}
				reportPerEvent(b, events)
			})
		}
	}
}
