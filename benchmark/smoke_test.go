package main

import (
	"io"
	"math"
	"regexp"
	"testing"

	"rdgc/internal/experiments"
)

// TestContract keeps BENCHMARK.json and the program's metric catalogue in
// step: same workloads, same metric names and units, in the same order.
func TestContract(t *testing.T) {
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, gotName, gotUnit, better string, want []metricDef) {
		if i >= len(want) {
			t.Errorf("%s metric %q is not in the program's catalogue", kind, gotName)
			return
		}
		if gotName != want[i].name || gotUnit != want[i].unit {
			t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the program %s [%s]",
				kind, i, gotName, gotUnit, want[i].name, want[i].unit)
		}
		if !name.MatchString(gotName) {
			t.Errorf("metric name %q is outside the contract's alphabet", gotName)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", gotName, better)
		}
		if seen[gotName] {
			t.Errorf("metric name %q is used twice", gotName)
		}
		seen[gotName] = true
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d + %d metrics, the program %d + %d",
			len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, e := range c.EndToEnd {
		check("end-to-end", i, e.Name, e.Unit, e.Better, endToEnd)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for i, p := range c.PerLayer {
		check("per-layer", i, p.Name, p.Unit, p.Better, perLayer)
	}
}

// workloadLayers names, per workload, per-layer metrics that must come out
// non-zero there: the layers the workload exists to exercise.
var workloadLayers = map[string][]string{
	"decay-grid":   {"gc.npms.cell_s", "gc.hybrid.pause_s", "gc.semispace.ns_per_traced_word", "gc.multigen.alloc_fast_ns_per_op", "heap.alloc.ops", "heap.barrier.calls", "mutator.self_s", "sim_markcons_np_vs_sc", "sim_pause_p99_words"},
	"table3-grid":  {"bench.nbody.cell_s", "bench.nucleic.cell_s", "bench.dynamic.cell_s", "gc.marksweep.alloc_fast_ns_per_op", "gc.words_swept", "mutator.self_s"},
	"gc-stress":    {"gc.explicit_collect_s", "gc.generational.ns_per_traced_word", "gc.words_marked", "gc.words_copied", "remset.peak"},
	"trace-write":  {"heap.sink.events", "heap.sink.s", "trace.compression_ratio", "trace.stored_bytes_per_event", "gc.semispace.cell_s"},
	"trace-replay": {"trace.next_s", "trace.apply_s", "trace.apply.alloc_s", "trace.apply.store_s", "trace.apply.root_s", "trace.compression_ratio", "gc.nonpredictive.pause_s"},
	"serve-grid":   {"serve.generate_s", "serve.resolve_profiles_s", "serve.ns_per_request", "serve.sim_pause_words", "serve.sim_alloc_words", "sim_latency_p50_ticks", "sim_latency_p999_ticks", "policy.adaptations"},
}

// everywhere are per-layer metrics every traced run must produce: the
// direct-call kernels and the run-level ratios.
var everywhere = []string{
	"heap.mark.ns_per_word", "heap.evac.ns_per_word", "heap.sweep.ns_per_word", "heap.markbits.ns_per_obj",
	"remset.hashset.remember_ns", "remset.ssb.remember_ns", "policy.observe_ns",
	"trace.decode_ns_per_event", "trace.encode_ns_per_event", "trace.sink_overhead_ratio",
	"trace.amplify_events_per_s", "trace.shard_s", "runner.dispatch_ns_per_cell",
	"calib.chase_ns_per_hop", "calib.memclr_gb_per_s", "trace_overhead_ratio",
	"runner.parallel_speedup", "host.heap_sys_mb", "budget.clock_read_ns", "budget.estimate_vs_untraced",
}

// TestSmoke runs every workload at quick scale, untraced and traced, and
// checks the result lines against the catalogue.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 3, seconds: 0.05, quick: true, log: io.Discard}
			res, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run printed %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("end-to-end metric %s [%s] missing or has unit %q", d.name, d.unit, v.Unit)
				}
				if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", d.name, v.Value)
				}
			}

			o.trace, o.spansDir = true, t.TempDir()
			res, err = run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("per-layer metric %s [%s] missing or has unit %q", d.name, d.unit, v.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("per-layer metric %s = %v", d.name, v.Value)
				}
			}
			for _, name := range append(workloadLayers[w.name], everywhere...) {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("per-layer metric %s = %v on %s, want it non-zero", name, res.Metrics[name].Value, w.name)
				}
			}
		})
	}
}

// TestDecayGridMatchesExperiments pins the benchmark's own collector sizing
// to internal/experiments': the same configuration must give the same
// mark/cons ratio and collection count in the measured window.
func TestDecayGridMatchesExperiments(t *testing.T) {
	const seed = 5
	sc := scale{quick: true}
	cfg := decayConfig(seed, sc)
	want := []experiments.Result{
		experiments.RunSemispace(cfg),
		experiments.RunMarkSweep(cfg),
		experiments.RunConventionalGenerational(cfg),
		experiments.RunNonPredictive(cfg),
		experiments.RunHybrid(cfg),
		experiments.RunMultigen(cfg, 3),
		experiments.RunNonPredictiveMS(cfg),
	}
	g, err := decayGrid.build(seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.cells {
		res, err := runCell(&g.cells[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := windowMarkCons(&res.counts); got != want[i].MarkCons || res.WindowCollections != want[i].Collections {
			t.Errorf("%s: mark/cons %v with %d collections, experiments.%s gives %v with %d",
				g.cells[i].name, got, res.WindowCollections, want[i].Collector, want[i].MarkCons, want[i].Collections)
		}
	}
}
