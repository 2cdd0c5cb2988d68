// Record and replay. A trace names allocation ordinals, never addresses, and
// the engines carry the identity table the recorder and the replayer read,
// so a recording is the same bytes under every collector, and its replay
// reproduces the trailer's statistics with the verifier clean throughout.
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
	var ws []tracedWorkload
	for _, p := range bench.Quick() {
		if name := p.Name(); name == "lattice" || name == "nboyer1" {
			ws = append(ws, tracedWorkload{name, p.HeapWords(), func(h *heap.Heap, c heap.Collector) error {
				// A program keeps the state of its run, so each heap runs
				// an instance of its own.
				if err := quickProgram(name).Run(h); err != nil {
					return err
				}
				c.Collect() // end on a collected heap, as gctrace record does
				return nil
			}})
		}
	}
	ws = append(ws, decaySession())
	if len(ws) < 2 {
		t.Fatal("the quick registry no longer has lattice")
	}
	return ws
}

// decaySession is a 20 k-step decay-model session.
func decaySession() tracedWorkload {
	const halfLife, steps = 768, 20000
	return tracedWorkload{"decay", experiments.DecayConfig{HalfLife: halfLife, L: 3.5, Steps: steps}.HeapWords(),
		func(h *heap.Heap, c heap.Collector) error {
			w := decay.NewWorkload(h, halfLife, 1)
			w.Warmup(10)
			w.Run(steps)
			c.Collect()
			return nil
		}}
}

// traced names the collectors the trace tests record and replay under.
var traced = map[string]bool{"semispace": true, "generational": true, "nonpredictive": true, "hybrid": true}

// quickProgram returns a fresh instance of the quick-registry program name.
func quickProgram(name string) bench.Program {
	for _, p := range bench.Quick() {
		if p.Name() == name {
			return p
		}
	}
	panic("no quick program " + name)
}

// recordOn records w on a heap of the zero Config under nc's collector.
func recordOn(t *testing.T, w tracedWorkload, nc gcfuzz.NamedCollector) []byte {
	t.Helper()
	h := heap.New(heap.WithConfig(heap.Config{}))
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

// replayed is what a replay leaves behind, as far as the test compares it.
type replayed struct {
	stats  heap.Stats
	gc     heap.GCStats
	spaces []string // name, Top and Used of every space
}

// replayOn replays data on a heap of the zero Config under nc's collector, the
// deep verifier on; Replay itself holds the mutator statistics and the event
// count to the trace's trailer.
func replayOn(t *testing.T, data []byte, nc gcfuzz.NamedCollector) replayed {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New(heap.WithConfig(heap.Config{}))
	c := nc.New(h)
	res, err := trace.Replay(rd, h, c, trace.ReplayOptions{Verify: true})
	if err != nil {
		t.Fatalf("%s: %v", nc.Name, err)
	}
	r := replayed{stats: res.Stats, gc: *c.GCStats()}
	for _, s := range h.Spaces {
		r.spaces = append(r.spaces, fmt.Sprintf("%s top=%d used=%d", s.Name, s.Top, s.Used()))
	}
	return r
}

// TestRecordReplay: for stop-and-copy, generational, non-predictive and
// hybrid, over the quick lattice and nboyer1 programs and a 20 k-step decay
// session, a recording is the stop-and-copy recording's bytes, and its replay
// matches the trailer's mutator statistics with a verifier-clean heap after
// every collection.
func TestRecordReplay(t *testing.T) {
	for _, w := range tracedWorkloads(t) {
		grid := gcfuzz.CollectorsSized(w.heapWords)
		want := recordOn(t, w, grid[0])
		for _, nc := range grid {
			if !traced[nc.Name] {
				continue
			}
			t.Run(w.name+"/"+nc.Name, func(t *testing.T) {
				if nc.Name != grid[0].Name {
					if got := recordOn(t, w, nc); !bytes.Equal(got, want) {
						t.Errorf("recorded %d bytes that differ from the stop-and-copy recording's %d", len(got), len(want))
					}
				}
				replayOn(t, want, nc)
			})
		}
	}
}
