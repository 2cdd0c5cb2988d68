// Record and replay at N workers. A trace names allocation ordinals, never
// addresses, and the engines carry the identity table the recorder and the
// replayer read, so neither end of the pipeline cares how many workers
// evacuate: a recording made on a parallel heap is the sequential one byte
// for byte, and a replay on a parallel heap equals the sequential replay in
// the tier parallel_test.go and lab_test.go promise that configuration.
package conformance

import (
	"bytes"
	"fmt"
	"testing"

	"rdgc/internal/bench"
	"rdgc/internal/decay"
	"rdgc/internal/experiments"
	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// tracedWorkload is something to record: a mutator and the heap size the
// sized collector grid is built for.
type tracedWorkload struct {
	name      string
	heapWords int
	run       func(h *heap.Heap, c heap.Collector) error
}

func tracedWorkloads(t *testing.T) []tracedWorkload {
	// Every heap below is built from a Config literal, so CI's RDGC_GC_*
	// passes over this package would only repeat the plain run: they leave
	// out nboyer1, whose 4.5 M events are most of the test's time.
	pinned := heap.DefaultConfig() != heap.New(heap.WithConfig(heap.Config{})).Config()
	var ws []tracedWorkload
	for _, p := range bench.Quick() {
		if p.Name() == "lattice" || (p.Name() == "nboyer1" && !pinned) {
			ws = append(ws, tracedWorkload{p.Name(), p.HeapWords(), func(h *heap.Heap, c heap.Collector) error {
				if err := p.Run(h); err != nil {
					return err
				}
				c.Collect() // end on a collected heap, as gctrace record does
				return nil
			}})
		}
	}
	const halfLife, steps = 768, 20000
	ws = append(ws, tracedWorkload{"decay", experiments.DecayConfig{HalfLife: halfLife, L: 3.5, Steps: steps}.HeapWords(),
		func(h *heap.Heap, c heap.Collector) error {
			w := decay.NewWorkload(h, halfLife, 1)
			w.Warmup(10)
			w.Run(steps)
			c.Collect()
			return nil
		}})
	if len(ws) < 2 {
		t.Fatal("the quick registry no longer has lattice")
	}
	return ws
}

// recordOn records w on a heap configured cfg under nc's collector.
func recordOn(t *testing.T, w tracedWorkload, nc gcfuzz.NamedCollector, cfg heap.Config) []byte {
	t.Helper()
	h := heap.New(heap.WithConfig(cfg))
	c := nc.New(h)
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(h, tw)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.run(h, rec.Collector(c)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayed is what a replay leaves behind, as far as any tier compares it.
type replayed struct {
	stats  heap.Stats
	gc     heap.GCStats
	spaces []string // name, Top and Used of every space
	used   []string // name and Used of every space
}

// replayOn replays data on a heap configured cfg under nc's collector, the
// deep verifier on; Replay itself holds the mutator statistics and the event
// count to the trace's trailer.
func replayOn(t *testing.T, data []byte, nc gcfuzz.NamedCollector, cfg heap.Config) replayed {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New(heap.WithConfig(cfg))
	c := nc.New(h)
	res, err := trace.Replay(rd, h, c, trace.ReplayOptions{Verify: true})
	if err != nil {
		t.Fatalf("%s under %+v: %v", nc.Name, cfg, err)
	}
	r := replayed{stats: res.Stats, gc: *c.GCStats()}
	for _, s := range h.Spaces {
		r.spaces = append(r.spaces, fmt.Sprintf("%s top=%d used=%d", s.Name, s.Top, s.Used()))
		r.used = append(r.used, fmt.Sprintf("%s used=%d", s.Name, s.Used()))
	}
	return r
}

// TestRecordReplayAtNWorkers: for stop-and-copy, generational,
// non-predictive and hybrid, over the quick lattice and nboyer1 programs and
// a 20 k-step decay session, recordings on heaps of 2 and 4 exact-fit
// workers and 4 buffered ones are the sequential recording's bytes, and
// replays there equal the sequential replay — GCStats and every space's Top
// for the single-target collectors on exact-fit workers (tier 2), per-space
// Used() for them on buffered workers (every workload ends on a full
// collection, so what the spaces hold is the live data either way), and for
// all four the trailer-checked mutator statistics and a verifier-clean heap
// after every collection (tier 3).
func TestRecordReplayAtNWorkers(t *testing.T) {
	singleTarget := map[string]bool{"semispace": true, "generational": true}
	parallel := []heap.Config{{Workers: 2}, {Workers: 4, LAB: false}, {Workers: 4, LAB: true}}
	for _, w := range tracedWorkloads(t) {
		grid := gcfuzz.CollectorsSized(w.heapWords)
		want := recordOn(t, w, grid[0], heap.Config{})
		for _, nc := range grid {
			if nc.Name != "semispace" && nc.Name != "generational" && nc.Name != "nonpredictive" && nc.Name != "hybrid" {
				continue
			}
			t.Run(w.name+"/"+nc.Name, func(t *testing.T) {
				seq := replayOn(t, want, nc, heap.Config{})
				for _, cfg := range parallel {
					if got := recordOn(t, w, nc, cfg); !bytes.Equal(got, want) {
						t.Errorf("%+v: recorded %d bytes that differ from the sequential recording's %d", cfg, len(got), len(want))
					}
					par := replayOn(t, want, nc, cfg)
					if par.stats != seq.stats {
						t.Errorf("%+v: mutator stats %+v, sequential %+v", cfg, par.stats, seq.stats)
					}
					if !singleTarget[nc.Name] {
						continue
					}
					if cfg.LAB {
						if fmt.Sprint(par.used) != fmt.Sprint(seq.used) {
							t.Errorf("%+v: occupancy %v, sequential %v", cfg, par.used, seq.used)
						}
						continue
					}
					if par.gc != seq.gc {
						t.Errorf("%+v: GCStats diverge:\n  parallel   %+v\n  sequential %+v", cfg, par.gc, seq.gc)
					}
					if fmt.Sprint(par.spaces) != fmt.Sprint(seq.spaces) {
						t.Errorf("%+v: spaces %v, sequential %v", cfg, par.spaces, seq.spaces)
					}
				}
			})
		}
	}
}
