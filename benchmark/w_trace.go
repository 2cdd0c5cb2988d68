package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"rdgc/internal/decay"
	"rdgc/internal/experiments"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// The trace workloads record the decay mutator benchreport's trace rows use:
// half-life 768 at L = 3.5 under stop-and-copy (trace bytes do not depend on
// the recording collector).
const traceHalfLife = 768

func traceSessionWords(steps int) int {
	return experiments.DecayConfig{HalfLife: traceHalfLife, L: 3.5, Steps: steps}.HeapWords()
}

// countWriter counts what is written and, unless w is set, discards it, so
// the write side is measured without a real sink. With lap set it ends a lap
// at every block written.
type countWriter struct {
	w   io.Writer
	n   uint64
	lap func()
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += uint64(len(p))
	if c.w != nil {
		if n, err := c.w.Write(p); err != nil {
			return n, err
		}
	}
	if c.lap != nil && len(p) >= 1024 { // a block's payload, not its frame
		c.lap()
	}
	return len(p), nil
}

// lapReader ends a lap at every read the trace reader makes of its source
// (64 KiB at a time).
type lapReader struct {
	r   io.Reader
	lap func()
}

func (l *lapReader) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	l.lap()
	return n, err
}

// session is one recorded decay session; its timing is in res.
type session struct {
	h      *heap.Heap
	c      heap.Collector
	events uint64
	res    cellResult
}

// recordSession runs a decay session of the given length with a recorder
// attached, writing into out. With a tracer the recorder is reached through
// the sink shim.
func recordSession(out io.Writer, seed int64, steps int, compress bool, tr *tracer) (session, error) {
	t0 := time.Now()
	words := traceSessionWords(steps)
	h := heap.New()
	s := session{h: h, c: semispace.New(h, words)}
	var opts []trace.WriterOption
	if compress {
		opts = append(opts, trace.WithCompression())
	}
	tw, err := trace.NewWriter(out, trace.Header{Meta: []trace.MetaEntry{
		{Key: "workload", Value: "decay-" + strconv.Itoa(traceHalfLife)},
		{Key: "heap_words", Value: strconv.Itoa(words)},
	}}, opts...)
	if err != nil {
		return s, err
	}
	rec, err := trace.NewRecorder(h, tw)
	if err != nil {
		return s, err
	}
	if tr != nil {
		tr.instrument(h, s.c, "semispace")
		h.SetEventSink(&sinkShim{inner: rec, ct: tr.cur})
	}
	w := decay.NewWorkload(h, traceHalfLife, seed)
	s.res.setupLaps = []float64{time.Since(t0).Seconds()}
	timeIt(tr, &s.res, func(lap func()) {
		w.Warmup(10)
		lap()
		runSteps(w, steps, lap)
		err = rec.Finish()
	})
	s.events = tw.Events()
	return s, err
}

// recordBase records the short session the synthesis operators amplify.
func recordBase(seed uint64, steps int) ([]byte, error) {
	var buf bytes.Buffer
	_, err := recordSession(&buf, int64(seed), steps, false, nil)
	return buf.Bytes(), err
}

// traceWrite: the write side of the codec and the heap's event sink.
var traceWrite = workload{
	name:   "trace-write",
	opUnit: "trace events written",
	passS:  0.9,
	build: func(seed uint64, sc scale) (*grid, error) {
		steps := sc.pick(300000, 10000)
		sessions := sc.pick(16, 4)
		base, err := recordBase(seed, sc.pick(20000, 2000))
		if err != nil {
			return nil, err
		}
		g := &grid{digest: fmt.Sprintf("%x", sha256.Sum256(base))}
		forms := []struct {
			name     string
			compress bool
		}{{"raw", false}, {"compressed", true}}
		for _, f := range forms {
			f := f
			g.cells = append(g.cells, cell{
				name:      "record-" + f.name,
				collector: "semispace",
				run: func(tr *tracer) (cellResult, error) {
					var cw countWriter
					s, err := recordSession(&cw, int64(seed), steps, f.compress, tr)
					res := s.res
					if err != nil {
						return res, err
					}
					res.addHeap(s.h, s.c)
					res.Events, res.Ops, res.StoredBytes = s.events, s.events, cw.n
					return res, nil
				},
			})
		}
		for _, f := range forms {
			f := f
			g.cells = append(g.cells, cell{
				name: "amplify-" + f.name,
				run: func(tr *tracer) (cellResult, error) {
					var res cellResult
					var cw countWriter
					var trailer trace.Trailer
					var err error
					timeIt(tr, &res, func(lap func()) {
						cw.lap = lap
						trailer, err = trace.Amplify(&cw, base, sessions, trace.SynthOptions{Seed: seed, Compress: f.compress})
					})
					if err != nil {
						return res, err
					}
					res.Events, res.Ops, res.StoredBytes = trailer.Events, trailer.Events, cw.n
					return res, nil
				},
			})
		}
		g.check = func(res []cellResult) error {
			if res[0].Events != res[1].Events || res[2].Events != res[3].Events {
				return errors.New("compression changed the number of events written")
			}
			if res[1].StoredBytes >= res[0].StoredBytes || res[3].StoredBytes >= res[2].StoredBytes {
				return errors.New("compressed output is not smaller than raw")
			}
			return nil
		}
		g.layers = func(ps *passStats, m map[string]float64) {
			raw, comp := &ps.stat[2].first, &ps.stat[3].first // the amplified corpus
			m["trace.compression_ratio"] = float64(raw.StoredBytes) / float64(comp.StoredBytes)
			m["trace.stored_bytes_per_event"] = float64(comp.StoredBytes) / float64(comp.Events)
		}
		return g, nil
	},
}

// traceReplay: the read side. The corpus is built in set-up: one base
// session amplified into interleaved sessions, raw and compressed. Mark/sweep
// is deliberately absent: its allocator would bury the codec, and the three
// grids and gc-stress cover it.
var traceReplay = workload{
	name:   "trace-replay",
	opUnit: "trace events applied",
	passS:  1.25,
	build: func(seed uint64, sc scale) (*grid, error) {
		baseSteps := sc.pick(20000, 2000)
		sessions := sc.pick(12, 4)
		g := &grid{}
		step := timeLaps(&g.setupLaps)
		base, err := recordBase(seed, baseSteps)
		if err != nil {
			return nil, err
		}
		step()
		var raw, comp bytes.Buffer
		if _, err := trace.Amplify(&countWriter{w: &raw, lap: step}, base, sessions, trace.SynthOptions{Seed: seed}); err != nil {
			return nil, err
		}
		step()
		if _, err := trace.Amplify(&countWriter{w: &comp, lap: step}, base, sessions, trace.SynthOptions{Seed: seed, Compress: true}); err != nil {
			return nil, err
		}
		step()
		total := traceSessionWords(baseSteps) * sessions
		grow := growingCollectors(total)

		sum := sha256.New()
		sum.Write(raw.Bytes())
		sum.Write(comp.Bytes())
		g.digest = fmt.Sprintf("%x", sum.Sum(nil))
		step()
		add := func(form string, data []byte, nc namedCollector) {
			g.cells = append(g.cells, cell{
				name:      form + "/" + nc.key,
				collector: nc.key,
				run:       func(tr *tracer) (cellResult, error) { return runReplayCell(data, nc, tr) },
			})
		}
		for _, nc := range pickCollectors(grow, "semispace", "generational", "nonpredictive") {
			add("compressed", comp.Bytes(), nc)
		}
		add("raw", raw.Bytes(), pickCollectors(grow, "semispace")[0])
		g.check = func(res []cellResult) error {
			for i := range res {
				if res[i].Events != res[0].Events {
					return fmt.Errorf("%s applied %d events, %s applied %d",
						g.cells[i].name, res[i].Events, g.cells[0].name, res[0].Events)
				}
			}
			return sameMutator(g.cells, res, func(*cell) string { return "" })
		}
		g.layers = func(ps *passStats, m map[string]float64) {
			c := &ps.stat[0].first // what the reader inflated
			m["trace.compression_ratio"] = float64(c.RawBytes) / float64(c.StoredBytes)
			m["trace.stored_bytes_per_event"] = float64(c.StoredBytes) / float64(c.Events)
		}
		return g, nil
	},
}

func runReplayCell(data []byte, nc namedCollector, tr *tracer) (cellResult, error) {
	var res cellResult
	t0 := time.Now()
	h := heap.New()
	c := nc.new(h)
	if tr != nil {
		tr.instrument(h, c, nc.key)
	}
	res.setupLaps = []float64{time.Since(t0).Seconds()}

	var rd *trace.Reader
	var out trace.ReplayResult
	var err error
	timeIt(tr, &res, func(lap func()) {
		rd, err = trace.NewReader(&lapReader{bytes.NewReader(data), lap})
		if err != nil {
			return
		}
		if tr != nil {
			out, err = tracedReplay(rd, h, c, tr)
		} else {
			// Replay checks the replayed mutator statistics and event count
			// against the trace trailer itself (ErrDrift).
			out, err = trace.Replay(rd, h, c, trace.ReplayOptions{})
		}
	})
	if err != nil {
		return res, err
	}
	res.addHeap(h, c)
	res.Events, res.Ops = out.Events, out.Events
	res.StoredBytes, res.RawBytes = rd.StoredBytes(), rd.RawBytes()
	return res, nil
}

// tracedReplay is trace.Replay's loop with a clock read between Next and
// Apply. Timestamps chain — each read ends one span and starts the next — so
// the spans tile the loop. It repeats Replay's drift check, and the caller
// compares its counts with the untraced cell's.
func tracedReplay(rd *trace.Reader, h *heap.Heap, c heap.Collector, tr *tracer) (res trace.ReplayResult, err error) {
	ct := tr.cur
	rp, err := trace.NewReplayer(h, &collectShim{Collector: c, tr: tr})
	if err != nil {
		return res, err
	}
	defer rp.Close()
	var ev trace.Event
	t0 := tr.now()
	for {
		nerr := rd.Next(&ev)
		t1 := tr.now()
		ct.aggs[kNext].add(t1 - t0)
		if errors.Is(nerr, io.EOF) {
			break
		}
		if nerr != nil {
			return res, nerr
		}
		if aerr := rp.Apply(&ev); aerr != nil {
			return res, fmt.Errorf("event %d (%s): %w", res.Events, ev.String(), aerr)
		}
		t0 = tr.now()
		switch ev.Kind {
		case trace.KindAlloc:
			ct.aggs[kApplyAlloc].add(t0 - t1)
		case trace.KindStore, trace.KindFill, trace.KindRaw:
			ct.aggs[kApplyStore].add(t0 - t1)
		case trace.KindCollect:
			ct.aggs[kApplyCollect].add(t0 - t1)
		default:
			ct.aggs[kApplyRoot].add(t0 - t1)
		}
		res.Events++
	}
	res.Stats = h.Stats
	if t := rd.Trailer(); h.Stats.WordsAllocated != t.WordsAllocated ||
		h.Stats.ObjectsAllocated != t.ObjectsAllocated || res.Events != t.Events {
		return res, fmt.Errorf("%w: replayed %d events, %d words; recorded %d, %d",
			trace.ErrDrift, res.Events, h.Stats.WordsAllocated, t.Events, t.WordsAllocated)
	}
	return res, nil
}
