package main

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"time"

	"rdgc/internal/bench"
	"rdgc/internal/heap"
)

// counts is the simulated outcome of one cell: word, object, event and tick
// counts that depend only on the inputs, never on the host. The struct is
// comparable, and every pass of a cell must reproduce it exactly.
type counts struct {
	AllocWords, AllocObjects uint64
	Ops                      uint64 // the workload's natural operation (see workload.opUnit)

	Collections, Major              int
	Copied, Marked, Swept           uint64
	Promoted, Tenured               uint64
	RemsetPeak                      int
	RemsetScanned                   uint64
	Adaptations                     int
	Pauses                          heap.PauseHist
	WindowWork, WindowAlloc         uint64 // decay-grid: the measured window after warm-up
	WindowCollections               int
	Events, StoredBytes, RawBytes   uint64 // trace cells
	Requests, Sessions, ServePauseW uint64 // serve cells
	Latency                         heap.PauseHist
}

// addGC folds one heap's collector statistics into c.
func (c *counts) addGC(g *heap.GCStats) {
	c.Collections += g.Collections
	c.Major += g.MajorCollections
	c.Copied += g.WordsCopied
	c.Marked += g.WordsMarked
	c.Swept += g.WordsSwept
	c.Promoted += g.WordsPromoted
	c.Tenured += g.WordsTenured
	if g.RemsetPeak > c.RemsetPeak {
		c.RemsetPeak = g.RemsetPeak
	}
	c.RemsetScanned += g.RemsetScanned
	c.Adaptations += g.PolicyAdaptations
	c.Pauses.Merge(&g.Pauses)
}

// addHeap folds a finished heap (mutator and collector side) into c.
func (c *counts) addHeap(h *heap.Heap, col heap.Collector) {
	c.AllocWords += h.Stats.WordsAllocated
	c.AllocObjects += h.Stats.ObjectsAllocated
	c.addGC(col.GCStats())
}

// merge accumulates another cell's counts into a workload total.
func (c *counts) merge(o *counts) {
	c.AllocWords += o.AllocWords
	c.AllocObjects += o.AllocObjects
	c.Ops += o.Ops
	c.Collections += o.Collections
	c.Major += o.Major
	c.Copied += o.Copied
	c.Marked += o.Marked
	c.Swept += o.Swept
	c.Promoted += o.Promoted
	c.Tenured += o.Tenured
	if o.RemsetPeak > c.RemsetPeak {
		c.RemsetPeak = o.RemsetPeak
	}
	c.RemsetScanned += o.RemsetScanned
	c.Adaptations += o.Adaptations
	c.Pauses.Merge(&o.Pauses)
	c.Events += o.Events
	c.StoredBytes += o.StoredBytes
	c.RawBytes += o.RawBytes
	c.Requests += o.Requests
	c.Sessions += o.Sessions
	c.ServePauseW += o.ServePauseW
	c.Latency.Merge(&o.Latency)
}

// gcWork is the Table 3 numerator: traced words plus swept words at the
// sweep discount.
func (c *counts) gcWork() float64 {
	return float64(c.Copied+c.Marked) + bench.SweepDiscount*float64(c.Swept)
}

func (c *counts) traced() uint64 { return c.Copied + c.Marked }

// cell is one (program, collector, mode) combination of a workload's grid.
// run builds the cell's heap, times its work and checks its own output; with
// a non-nil tracer it installs the timing shims first. Cells share nothing,
// so a pass may also run them on the runner's worker pool.
type cell struct {
	name      string
	collector string // key into collectorKeys, "" for cells with no heap
	program   string // key into programKeys, table3-grid only
	run       func(tr *tracer) (cellResult, error)
}

type cellResult struct {
	wall time.Duration // the timed section
	laps []float64     // the timed section lap by lap, in seconds (see laps.go)
	// setupLaps is building the heap and its live data, untimed, step by
	// step in seconds.
	setupLaps []float64
	counts
}

// workload is one named set of inputs. build makes the inputs from the seed
// (it is the workload-level part of set-up and is repeated every pass, so its
// time is a best-of like every other host number); check runs the cross-cell
// assertions on one pass's results.
type workload struct {
	name   string
	opUnit string
	// passS is what one pass (set-up and every cell) takes on the reference
	// box, in seconds. It is a constant, not a measurement: a run makes
	// --seconds / passS passes whatever the speed of the code under test, so
	// that two commits are compared over the same number of repetitions.
	passS float64
	build func(seed uint64, sc scale) (*grid, error)
}

// minPasses is the floor on passes per run: one to compare the other with.
const minPasses = 2

// passes is how many passes a run of the given length makes.
func (w *workload) passes(seconds float64) int {
	return max(minPasses, int(seconds/w.passS))
}

// overrun is how far past --seconds a run may go before it stops making
// passes. A slow spell of the box stretches a fixed number of passes, and the
// driver's 136 runs share one hour; a run that stops early says so and is
// slower than its parent by more than any bound anyway.
const overrun = 1.3

type grid struct {
	cells []cell
	check func(res []cellResult) error
	// digest covers generated inputs that no cell count reflects (corpus
	// bytes); it must repeat from pass to pass too.
	digest string
	// setupLaps are the seconds build's own steps took; nil makes the whole
	// build one step.
	setupLaps []float64
	// hostLayers are host seconds build spent in single layers, by per-layer
	// metric name; layers adds the workload's own per-layer metrics from the
	// finished passes.
	hostLayers map[string]float64
	layers     func(ps *passStats, m map[string]float64)
}

// scale shrinks every workload for the smoke test; its numbers are not
// comparable with a full run's.
type scale struct {
	quick bool
}

func (s scale) pick(full, quick int) int {
	if s.quick {
		return quick
	}
	return full
}

var workloads = []workload{
	decayGrid, table3Grid, gcStress, traceWrite, traceReplay, serveGrid,
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCell runs one cell, turning a panic (heap exhaustion is a panic in every
// collector) into the cell's error.
func runCell(c *cell, tr *tracer) (res cellResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cell %s panicked: %v", c.name, p)
		}
	}()
	if tr != nil {
		tr.beginCell(c)
		defer tr.endCell()
	}
	return c.run(tr)
}

// cellStat collects one cell's passes.
type cellStat struct {
	laps  lapBest
	first counts
	seen  bool
}

// best is the cell's wall: the sum of its laps, each at its fastest pass.
func (st *cellStat) best() float64 { return st.laps.sum() }

// passStats is what a sequence of passes over one workload's grid yields.
type passStats struct {
	cells     []cell
	stat      []cellStat
	setups    []float64 // per pass: build plus every cell's set-up
	setup     lapBest   // the same step by step: build's steps, then each cell's set-up
	layers    func(ps *passStats, m map[string]float64)
	hostLayer map[string][]float64
	passes    int // made
	want      int // asked for; more than passes if the run overran
	digest    string
	tally
}

// tally counts the checks a run made and the ones that failed: cells that
// erred or panicked, broken determinism, failed cross-cell assertions.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// check counts one check and records err if it failed.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.fail("%v", err)
	}
}

// runPasses makes n whole passes: build, every cell in order, the checks. It
// stops early, with at least least passes made, once stopAt has passed. Cells
// run sequentially: on a small shared box cells on two workers contend for
// cache and memory, and their timings spread several times wider.
func runPasses(w workload, seed uint64, sc scale, tr *tracer, n, least int, stopAt time.Time) (*passStats, error) {
	ps := &passStats{hostLayer: map[string][]float64{}, want: n}
	for ps.passes < n && (ps.passes < least || time.Now().Before(stopAt)) {
		t0 := time.Now()
		g, err := w.build(seed, sc)
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		setupLaps := g.setupLaps
		if setupLaps == nil {
			setupLaps = []float64{time.Since(t0).Seconds()}
		}
		if ps.passes == 0 {
			ps.cells = g.cells
			ps.stat = make([]cellStat, len(g.cells))
			ps.digest = g.digest
			ps.layers = g.layers
		} else if g.digest != ps.digest {
			ps.fail("pass %d: generated inputs differ from the first pass", ps.passes)
		}

		for name, v := range g.hostLayers {
			ps.hostLayer[name] = append(ps.hostLayer[name], v)
		}

		results := make([]cellResult, len(g.cells))
		ok := true
		for i := range g.cells {
			ps.attempted++
			res, err := runCell(&g.cells[i], tr)
			if err != nil {
				ps.fail("pass %d: %s: %v", ps.passes, g.cells[i].name, err)
				ok = false
				continue
			}
			results[i] = res
			setupLaps = append(setupLaps, res.setupLaps...)
			st := &ps.stat[i]
			if !st.laps.add(res.laps) {
				ps.fail("pass %d: %s: cut %d laps, the first pass %d", ps.passes, g.cells[i].name, len(res.laps), len(st.laps))
			}
			if !st.seen {
				st.first, st.seen = res.counts, true
			} else if st.first != res.counts {
				ps.fail("pass %d: %s: simulated counts differ from the first pass", ps.passes, g.cells[i].name)
			}
		}
		ps.attempted++
		if !ok {
			ps.fail("pass %d: cross-cell checks skipped, a cell failed", ps.passes)
		} else if g.check != nil {
			if err := g.check(results); err != nil {
				ps.fail("pass %d: check: %v", ps.passes, err)
			}
		}
		if ok {
			ps.setups = append(ps.setups, sum(setupLaps))
			if !ps.setup.add(setupLaps) {
				ps.fail("pass %d: set-up took %d steps, the first pass %d", ps.passes, len(setupLaps), len(ps.setup))
			}
		}
		ps.passes++
	}
	return ps, nil
}

// best is the host-time estimator for what is timed whole: the fastest of a
// fixed number of repetitions. On a shared box interference only ever slows a
// repetition down; over eight same-code runs the sum of per-cell medians
// spread 14% and the sum of per-cell minima 5%. Cells and set-up are timed in
// laps, each lap at its best (see laps.go).
func best(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}

// wallS is the sum over cells of each cell's best wall.
func (ps *passStats) wallS() float64 {
	var sum float64
	for i := range ps.stat {
		sum += ps.stat[i].best()
	}
	return sum
}

// total sums the cells' simulated counts (one pass's worth).
func (ps *passStats) total() counts {
	var t counts
	for i := range ps.stat {
		t.merge(&ps.stat[i].first)
	}
	return t
}

// simDigest is a hash over every cell's counts and the generated inputs: two
// runs of the same seed print the same digest unless a simulated number
// moved.
func (ps *passStats) simDigest() string {
	h := sha256.New()
	fmt.Fprintln(h, ps.digest)
	for i := range ps.stat {
		fmt.Fprintf(h, "%s %+v\n", ps.cells[i].name, ps.stat[i].first)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
