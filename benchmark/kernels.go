package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"time"

	"rdgc/internal/decay"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
	"rdgc/internal/policy"
	"rdgc/internal/remset"
	"rdgc/internal/runner"
	"rdgc/internal/trace"
)

// Direct-call kernels on fixed fixtures: what each layer costs when called
// alone in a loop, the bound the end-to-end ns-per-word numbers are reported
// against. Fixtures do not depend on the seed, so the rows compare across
// workloads and runs; the two calib kernels touch no repository code, so they
// compare across machines.

// kernelSink keeps results live so the compiler cannot drop a kernel.
var kernelSink uint64

// nsPerUnit times rounds of f (each doing units units of work) and returns
// the median round's nanoseconds per unit.
func nsPerUnit(rounds int, units float64, f func()) float64 {
	f() // warm caches and lazily built tables
	v := make([]float64, rounds)
	for i := range v {
		t0 := time.Now()
		f()
		v[i] = float64(time.Since(t0).Nanoseconds()) / units
	}
	return median(v)
}

// buildChain hand-allocates a chain of n pairs in s (car a fixnum, cdr the
// previous pair) — the graph the internal/heap engine benchmarks trace.
func buildChain(h *heap.Heap, s *heap.Space, n int) heap.Word {
	prev := heap.NullWord
	for i := 0; i < n; i++ {
		off, ok := s.Bump(3)
		if !ok {
			panic("benchmark: chain arena too small")
		}
		w := h.InitObject(s, off, heap.TPair, 2)
		s.Mem[off+1] = heap.FixnumWord(int64(i))
		s.Mem[off+2] = prev
		prev = w
	}
	return prev
}

const (
	chainPairs   = 8000
	forestChains = 256
	forestLen    = 96
)

// runKernels measures every direct-call kernel into m. Quick scale keeps the
// fixtures (so the rows stay comparable in kind) but takes one round each and
// shrinks the calibration arrays.
func runKernels(m map[string]float64, sc scale) error {
	rounds := sc.pick(5, 1)
	forestWords := float64(3 * forestChains * forestLen)

	{ // mark drain over the forest
		h := heap.New()
		s := h.NewSpace("mark-arena", 1<<18)
		for c := 0; c < forestChains; c++ {
			h.GlobalWord(buildChain(h, s, forestLen))
		}
		mk := heap.NewMarker(h, nil)
		m["heap.mark.ns_per_word"] = nsPerUnit(rounds, 20*forestWords, func() {
			for i := 0; i < 20; i++ {
				mk.Begin()
				mk.Run()
				heap.ClearMarks(s)
			}
		})
	}
	{ // Cheney evacuate+drain flip over the chain
		h := heap.New()
		from := h.NewSpace("flip-A", 1<<16)
		to := h.NewSpace("flip-B", 1<<16)
		h.GlobalWord(buildChain(h, from, chainPairs))
		e := heap.NewEvacuator(h, nil)
		m["heap.evac.ns_per_word"] = nsPerUnit(rounds, 100*3*chainPairs, func() {
			for i := 0; i < 100; i++ {
				e.SetFrom(from)
				e.Begin(to)
				e.Run()
				from.Reset()
				from, to = to, from
			}
		})
	}
	{ // block sweep with every other object marked
		const arena = 1 << 18
		h := heap.New()
		s := h.NewBlockedSpace("sweep-arena", arena)
		var offs []int
		for blk := 0; blk < s.NumBlocks(); blk++ {
			for {
				off, ok := s.AllocFromBlock(blk, 4)
				if !ok {
					break
				}
				s.Mem[off] = heap.HeaderWord(heap.TVector, 3)
				offs = append(offs, off)
			}
		}
		sw := heap.NewSweeper(h)
		m["heap.sweep.ns_per_word"] = nsPerUnit(rounds, 10*arena, func() {
			for i := 0; i < 10; i++ {
				for j := 0; j < len(offs); j += 2 {
					s.SetMarkAt(offs[j])
				}
				kernelSink += sw.Sweep(s)
			}
		})

		// mark-bitmap test+set+clear per object, on the same space
		heap.ClearMarks(s)
		m["heap.markbits.ns_per_obj"] = nsPerUnit(rounds, 10*float64(len(offs)), func() {
			for i := 0; i < 10; i++ {
				for _, off := range offs {
					if !s.MarkedAt(off) {
						s.SetMarkAt(off)
						kernelSink++
					}
				}
				heap.ClearMarks(s)
			}
		})
	}
	{ // remembered sets: 4096 distinct pointers, remembered twice, then cleared
		words := make([]heap.Word, 4096)
		for i := range words {
			words[i] = heap.PtrWord(3, 16*i)
		}
		for name, set := range map[string]remset.Set{
			"remset.hashset.remember_ns": remset.NewHashSet(),
			"remset.ssb.remember_ns":     remset.NewSSB(),
		} {
			set := set
			m[name] = nsPerUnit(rounds, 50*2*float64(len(words)), func() {
				for i := 0; i < 50; i++ {
					for pass := 0; pass < 2; pass++ {
						for _, w := range words {
							set.Remember(w)
						}
					}
					kernelSink += uint64(set.Len())
					set.Clear()
				}
			})
		}
	}
	{ // the adaptive tenuring controller's decision path
		ctl := policy.New(policy.Config{})
		obs := policy.Observation{FreshWords: 8192, PromotedWords: 512, NurseryCap: 8192}
		for a := range obs.SurvByAge {
			obs.SurvByAge[a] = uint64(2048 >> uint(a))
			obs.RetainedByAge[a] = uint64(1024 >> uint(a))
		}
		m["policy.observe_ns"] = nsPerUnit(rounds, 20000, func() {
			for i := 0; i < 20000; i++ {
				obs.FreshWords = 8192 + uint64(i&1023)
				kernelSink += uint64(ctl.Observe(obs).TriggerWords)
			}
		})
	}
	if err := traceKernels(m, rounds); err != nil {
		return err
	}
	{ // runner dispatch: cells that do nothing, one worker
		specs := make([]runner.Spec[int], 2000)
		for i := range specs {
			specs[i] = runner.Spec[int]{Name: "noop", Run: func() (int, error) { return 0, nil }}
		}
		m["runner.dispatch_ns_per_cell"] = nsPerUnit(rounds, float64(len(specs)), func() {
			kernelSink += uint64(len(runner.Run(specs, runner.Options{Workers: 1})))
		})
	}
	{ // machine calibration: dependent loads over 16 MiB, and memclr
		n := sc.pick(1<<22, 1<<16)
		next := make([]int32, n)
		perm := rand.New(rand.NewSource(1)).Perm(n)
		for i := 0; i < n; i++ {
			next[perm[i]] = int32(perm[(i+1)%n])
		}
		const hops = 1 << 19
		at := int32(0)
		m["calib.chase_ns_per_hop"] = nsPerUnit(rounds, hops, func() {
			for i := 0; i < hops; i++ {
				at = next[at]
			}
		})
		kernelSink += uint64(at)

		buf := make([]uint64, sc.pick(1<<23, 1<<18)) // 64 MiB
		nsPerByte := nsPerUnit(rounds, float64(8*len(buf)), func() { clear(buf) })
		kernelSink += buf[len(buf)/2]
		m["calib.memclr_gb_per_s"] = 1 / nsPerByte
	}
	return nil
}

// traceKernels measures the codec on a fixed small corpus: a 5000-step decay
// session amplified into four interleaved sessions.
func traceKernels(m map[string]float64, rounds int) error {
	const steps, sessions = 5000, 4
	base, err := recordBase(1, steps)
	if err != nil {
		return err
	}
	var raw, comp bytes.Buffer
	tr, err := trace.Amplify(&raw, base, sessions, trace.SynthOptions{Seed: 7})
	if err != nil {
		return err
	}
	if _, err := trace.Amplify(&comp, base, sessions, trace.SynthOptions{Seed: 7, Compress: true}); err != nil {
		return err
	}
	events := float64(tr.Events)

	var kerr error
	drain := func(data []byte) func() {
		return func() {
			rd, err := trace.NewReader(bytes.NewReader(data))
			if err == nil {
				_, err = rd.Drain()
			}
			if err != nil {
				kerr = err
			}
		}
	}
	decode := nsPerUnit(rounds, events, drain(raw.Bytes()))
	m["trace.decode_ns_per_event"] = decode
	m["trace.decompress_ns_per_event"] = math.Max(0, nsPerUnit(rounds, events, drain(comp.Bytes()))-decode)

	// Encode: append the decoded events to a writer over a discarding sink.
	var evs []trace.Event
	rd, err := trace.NewReader(bytes.NewReader(raw.Bytes()))
	if err != nil {
		return err
	}
	for {
		var ev trace.Event
		if err := rd.Next(&ev); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return err
		}
		evs = append(evs, ev)
	}
	write := func(opts ...trace.WriterOption) func() {
		return func() {
			var cw countWriter
			w, err := trace.NewWriter(&cw, rd.Header(), opts...)
			for i := 0; err == nil && i < len(evs); i++ {
				err = w.Append(&evs[i])
			}
			if err == nil {
				err = w.Close(rd.Trailer())
			}
			if err != nil {
				kerr = err
			}
		}
	}
	encode := nsPerUnit(rounds, events, write())
	m["trace.encode_ns_per_event"] = encode
	m["trace.compress_ns_per_event"] = math.Max(0, nsPerUnit(rounds, events, write(trace.WithCompression()))-encode)

	m["trace.amplify_events_per_s"] = 1e9 / nsPerUnit(rounds, events, func() {
		var cw countWriter
		if _, err := trace.Amplify(&cw, base, sessions, trace.SynthOptions{Seed: 7}); err != nil {
			kerr = err
		}
	})
	m["trace.shard_s"] = 1e-9 * nsPerUnit(rounds, 1, func() {
		rd, err := trace.NewReader(bytes.NewReader(raw.Bytes()))
		if err == nil {
			_, err = trace.Shard(rd, sessions, trace.SynthOptions{})
		}
		if err != nil {
			kerr = err
		}
	})

	// The event sink's cost to the mutator: the same session with and
	// without a recorder attached.
	session := func(record bool) func() {
		return func() {
			if record {
				var cw countWriter
				if _, err := recordSession(&cw, 1, steps, false, nil); err != nil {
					kerr = err
				}
				return
			}
			h := heap.New()
			semispace.New(h, traceSessionWords(steps))
			w := decay.NewWorkload(h, traceHalfLife, 1)
			w.Warmup(10)
			w.Run(steps)
		}
	}
	m["trace.sink_overhead_ratio"] = nsPerUnit(rounds, 1, session(true)) / nsPerUnit(rounds, 1, session(false))
	return kerr
}
