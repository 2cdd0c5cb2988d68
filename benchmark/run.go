package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rdgc/internal/runner"
)

// options are one run's settings, as the driver passes them.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	spansDir string    // where a traced run writes spans.json; "" skips it
	log      io.Writer // tables and notes for a reader; the result line goes elsewhere
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(o options) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	sc := scale{quick: o.quick}
	n := w.passes(o.seconds)
	stopAt := time.Now().Add(time.Duration(overrun * o.seconds * float64(time.Second)))
	fmt.Fprintf(o.log, "workload %s  seed %d  %gs = %d passes  trace %v  ops = %s\n", w.name, o.seed, o.seconds, n, o.trace, w.opUnit)
	if o.quick {
		fmt.Fprintln(o.log, "QUICK SCALE: these numbers are not comparable with a full run's")
	}
	if !o.trace {
		return runEndToEnd(w, o, sc, n, stopAt)
	}
	return runTraced(w, o, sc, n, stopAt)
}

// runEndToEnd is `--trace 0`: n untraced sequential passes, then the
// end-to-end metrics.
func runEndToEnd(w workload, o options, sc scale, n int, stopAt time.Time) (*result, error) {
	ps, err := runPasses(w, o.seed, sc, nil, n, minPasses, stopAt)
	if err != nil {
		return nil, err
	}
	printCells(o.log, ps, nil)
	m := endToEndMetrics(ps)
	return finish(o.log, ps.tally, m, endToEnd)
}

func endToEndMetrics(ps *passStats) map[string]float64 {
	t := ps.total()
	wall := ps.wallS()
	return map[string]float64{
		"alloc_mwords_per_s":  float64(t.AllocWords) / 1e6 / wall,
		"traced_mwords_per_s": float64(t.traced()) / 1e6 / wall,
		"ops_per_s":           float64(t.Ops) / wall,
		"peak_rss_mb":         peakRSSMB(),
		"setup_s":             ps.setup.sum(),
		"sim_gc_work_ratio":   t.gcWork() / float64(t.AllocWords),
	}
}

// peakRSSMB is this process's high-water resident set. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runTraced is `--trace 1`: half of the n passes untraced (the baseline the
// overhead ratio and the per-collector cell walls come from), the rest with
// the shims installed, then one pass on the runner's worker pool and the
// direct-call kernels.
func runTraced(w workload, o options, sc scale, n int, stopAt time.Time) (*result, error) {
	plain, err := runPasses(w, o.seed, sc, nil, n/2, 1, stopAt)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.begin("workload " + w.name)
	traced, err := runPasses(w, o.seed, sc, tr, n-n/2, 1, stopAt)
	tr.end()
	if err != nil {
		return nil, err
	}
	t := plain.tally
	t.attempted += traced.attempted
	t.failed += traced.failed
	t.errs = append(t.errs, traced.errs...)

	// The shims must not change what is simulated.
	t.check(errIf(plain.simDigest() != traced.simDigest(),
		"traced cells' simulated counts differ from the untraced cells'"))

	m := map[string]float64{}
	untracedLayers(m, plain)
	maxResidual := tracedLayers(m, plain, traced, tr)
	m["budget.max_residual_share"] = maxResidual
	m["budget.estimate_vs_untraced"] = printBudget(o.log, plain, traced, tr)
	t.check(errIf(maxResidual > 0.02, "budget: a cell's parts miss its span by %.1f%%", 100*maxResidual))

	speedup, err := parallelSpeedup(w, o.seed, sc, plain)
	t.check(err)
	m["runner.parallel_speedup"] = speedup
	t.check(runKernels(m, sc))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["host.gc_cycles"] = float64(ms.NumGC)
	m["host.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	m["host.heap_sys_mb"] = float64(ms.HeapSys) / (1 << 20)
	m["failed_share"] = float64(t.failed) / float64(t.attempted)

	printCells(o.log, plain, traced)
	if o.spansDir != "" {
		if err := tr.write(o.spansDir, w.name, o.seed); err != nil {
			return nil, err
		}
		fmt.Fprintf(o.log, "spans: %d kept, %d dropped -> %s/spans.json\n", len(tr.spans), tr.dropped, o.spansDir)
	}
	return finish(o.log, t, m, perLayer)
}

func errIf(bad bool, format string, args ...any) error {
	if !bad {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// untracedLayers fills the per-layer metrics that need no shim: per-collector
// and per-program cell walls and the simulated counts.
func untracedLayers(m map[string]float64, ps *passStats) {
	t := ps.total()
	for i := range ps.stat {
		wall := ps.stat[i].best()
		if c := ps.cells[i].collector; c != "" {
			m["gc."+c+".cell_s"] += wall
		}
		if p := ps.cells[i].program; p != "" {
			m["bench."+p+".cell_s"] += wall
		}
	}
	m["wall_s"] = ps.wallS()
	m["gc.collections"] = float64(t.Collections)
	m["gc.words_copied"] = float64(t.Copied)
	m["gc.words_marked"] = float64(t.Marked)
	m["gc.words_swept"] = float64(t.Swept)
	m["gc.words_promoted"] = float64(t.Promoted)
	m["gc.words_tenured"] = float64(t.Tenured)
	m["remset.peak"] = float64(t.RemsetPeak)
	m["remset.scanned"] = float64(t.RemsetScanned)
	m["policy.adaptations"] = float64(t.Adaptations)
	m["sim_pause_p99_words"] = float64(t.Pauses.P99())
	m["sim_pause_max_words"] = float64(t.Pauses.MaxWords)

	for name, v := range ps.hostLayer {
		m[name] = best(v)
	}
	if ps.layers != nil {
		ps.layers(ps, m)
	}
}

// tracedLayers fills the per-layer metrics the shims measure, from each
// cell's budget. Times are per pass (totals over the traced passes divided by
// their number) with the shims' clock reads taken out, so they sit beside the
// untraced cell walls. It returns the largest tiling residual of any cell.
func tracedLayers(m map[string]float64, plain, traced *passStats, tr *tracer) float64 {
	passes := float64(traced.passes)
	perPass := func(ns float64) float64 { return ns / 1e9 / passes }
	var all budget
	var allocs, barriers, sinks uint64
	perCollector := map[string]*budget{}
	fastCalls := map[string]uint64{}
	tracedWords := map[string]uint64{}
	var worst float64
	for i := range traced.cells {
		c := &traced.cells[i]
		ct := tr.cells[c.name]
		if ct == nil {
			continue
		}
		b := ct.budget(tr.clock)
		worst = math.Max(worst, b.residual)
		if c.collector == "" {
			continue // a codec cell: no heap, so no layers below its span
		}
		if perCollector[c.collector] == nil {
			perCollector[c.collector] = &budget{}
		}
		all.add(b)
		perCollector[c.collector].add(b)
		allocs += ct.aggs[kAllocFast].N + ct.aggs[kAllocGC].N
		barriers += ct.aggs[kBarrier].N
		sinks += ct.aggs[kSink].N
		fastCalls[c.collector] += ct.aggs[kAllocFast].N
		tracedWords[c.collector] += traced.stat[i].first.traced()
	}

	m["heap.alloc.ops"] = float64(allocs) / passes
	m["heap.alloc.fast_s"] = perPass(all.alloc)
	m["gc.pause_s"] = perPass(all.pause)
	m["gc.explicit_collect_s"] = perPass(all.explicit)
	m["mutator.self_s"] = perPass(all.mutator)
	m["heap.barrier.calls"] = float64(barriers) / passes
	m["heap.barrier.s"] = perPass(all.barrier)
	m["heap.sink.events"] = float64(sinks) / passes
	m["heap.sink.s"] = perPass(all.sink)
	m["trace.next_s"] = perPass(all.decode)
	for i, kind := range []string{"alloc", "store", "root", "collect"} {
		m["trace.apply."+kind+"_s"] = perPass(all.applyKind[i])
		m["trace.apply_s"] += perPass(all.applyKind[i])
	}
	for key, b := range perCollector {
		if n := fastCalls[key]; n > 0 {
			m["gc."+key+".alloc_fast_ns_per_op"] = b.alloc / float64(n)
		}
		m["gc."+key+".pause_s"] = perPass(b.pause)
		if words := tracedWords[key]; words > 0 {
			// tracedWords is one pass's worth.
			m["gc."+key+".ns_per_traced_word"] = b.pause / passes / float64(words)
		}
	}
	m["trace_overhead_ratio"] = traced.wallS() / plain.wallS()
	m["budget.clock_read_ns"] = tr.clock
	return worst
}

// parallelSpeedup runs one pass of the grid on the runner's pool at one
// worker per CPU and reports the sequential wall (sum of the cells' best) over
// the pool's wall. It is a per-layer number only: end-to-end timings stay
// sequential.
func parallelSpeedup(w workload, seed uint64, sc scale, plain *passStats) (float64, error) {
	g, err := w.build(seed, sc)
	if err != nil {
		return 0, err
	}
	specs := make([]runner.Spec[cellResult], len(g.cells))
	for i := range g.cells {
		c := &g.cells[i]
		specs[i] = runner.Spec[cellResult]{Name: c.name, Run: func() (cellResult, error) { return c.run(nil) }}
	}
	t0 := time.Now()
	out := runner.Run(specs, runner.Options{Workers: runtime.NumCPU()})
	wall := time.Since(t0).Seconds()
	var seq float64
	for i, r := range out {
		if r.Err != nil {
			return 0, fmt.Errorf("parallel pass: %w", r.Err)
		}
		if r.Value.counts != plain.stat[i].first {
			return 0, fmt.Errorf("parallel pass: %s: simulated counts differ from the sequential run's", r.Name)
		}
		seq += plain.stat[i].best() + sum(r.Value.setupLaps)
	}
	return seq / wall, nil
}

// finish prints the notes and assembles the result from the metric list.
func finish(log io.Writer, t tally, m map[string]float64, defs []metricDef) (*result, error) {
	for _, e := range t.errs {
		fmt.Fprintln(log, "FAILED:", e)
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) { // a cell that never finished leaves a zero divisor
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		delete(m, d.name)
	}
	for name := range m {
		return nil, fmt.Errorf("metric %q is computed but not in the catalogue", name)
	}
	return res, nil
}
