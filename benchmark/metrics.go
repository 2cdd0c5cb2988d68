package main

// The metric catalogue. BENCHMARK.json lists the same names, units and
// directions (smoke_test.go keeps the two in step); the README defines each
// one. Every number is either host (wall clock, memory: noisy) or sim (word
// and tick counts: exactly repeatable for a given seed).

// collectorKeys are the seven collectors, by the names gcfuzz and gcserve
// use. Per-collector metrics are spelled gc.<key>.<what>.
var collectorKeys = []string{
	"semispace", "marksweep", "generational", "nonpredictive", "hybrid", "multigen", "npms",
}

// programKeys are the four table3-grid programs. Per-program metrics are
// spelled bench.<key>.cell_s.
var programKeys = []string{"nbody", "nucleic", "dynamic", "nboyer"}

type metricDef struct {
	name, unit string
}

// endToEnd is what `--trace 0` prints: every workload emits every one, and
// none is ever zero.
var endToEnd = []metricDef{
	{"alloc_mwords_per_s", "Mwords/s"},
	{"traced_mwords_per_s", "Mwords/s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"sim_gc_work_ratio", "ratio"},
}

// perLayer is what `--trace 1` prints. A layer a workload does not reach
// reports 0 (no time busy, no work done).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit string) { m = append(m, metricDef{name, unit}) }
	perCollector := func(what, unit string) {
		for _, c := range collectorKeys {
			add("gc."+c+"."+what, unit)
		}
	}

	// From the untraced passes of the run.
	add("wall_s", "s")
	perCollector("cell_s", "s")
	for _, p := range programKeys {
		add("bench."+p+".cell_s", "s")
	}
	add("gc.collections", "count")
	add("gc.words_copied", "words")
	add("gc.words_marked", "words")
	add("gc.words_swept", "words")
	add("gc.words_promoted", "words")
	add("gc.words_tenured", "words")
	add("remset.peak", "count")
	add("remset.scanned", "count")
	add("policy.adaptations", "count")
	add("serve.sim_pause_words", "words")
	add("serve.sim_alloc_words", "words")
	add("trace.compression_ratio", "ratio")
	add("trace.stored_bytes_per_event", "B")
	add("sim_markcons_np_vs_sc", "ratio")
	add("sim_pause_p99_words", "words")
	add("sim_pause_max_words", "words")
	add("sim_latency_p50_ticks", "ticks")
	add("sim_latency_p999_ticks", "ticks")
	add("failed_share", "ratio")
	add("host.gc_cycles", "count")
	add("host.gc_pause_ms", "ms")
	add("host.heap_sys_mb", "MB")

	// From the traced passes: shims around each layer's public entry points.
	add("heap.alloc.ops", "count")
	add("heap.alloc.fast_s", "s")
	perCollector("alloc_fast_ns_per_op", "ns")
	add("gc.pause_s", "s")
	add("gc.explicit_collect_s", "s")
	perCollector("pause_s", "s")
	perCollector("ns_per_traced_word", "ns")
	add("mutator.self_s", "s")
	add("heap.barrier.calls", "count")
	add("heap.barrier.s", "s")
	add("heap.sink.events", "count")
	add("heap.sink.s", "s")
	add("trace.next_s", "s")
	add("trace.apply_s", "s")
	add("trace.apply.alloc_s", "s")
	add("trace.apply.store_s", "s")
	add("trace.apply.root_s", "s")
	add("trace.apply.collect_s", "s")
	add("serve.generate_s", "s")
	add("serve.resolve_profiles_s", "s")
	add("serve.ns_per_request", "ns")
	add("runner.parallel_speedup", "ratio")
	add("trace_overhead_ratio", "ratio")
	add("budget.max_residual_share", "ratio")
	add("budget.estimate_vs_untraced", "ratio")
	add("budget.clock_read_ns", "ns")

	// Direct-call kernels on fixed fixtures: the attainable bounds.
	add("heap.mark.ns_per_word", "ns")
	add("heap.evac.ns_per_word", "ns")
	add("heap.sweep.ns_per_word", "ns")
	add("heap.markbits.ns_per_obj", "ns")
	add("remset.hashset.remember_ns", "ns")
	add("remset.ssb.remember_ns", "ns")
	add("policy.observe_ns", "ns")
	add("trace.decode_ns_per_event", "ns")
	add("trace.decompress_ns_per_event", "ns")
	add("trace.encode_ns_per_event", "ns")
	add("trace.compress_ns_per_event", "ns")
	add("trace.sink_overhead_ratio", "ratio")
	add("trace.amplify_events_per_s", "1/s")
	add("trace.shard_s", "s")
	add("runner.dispatch_ns_per_cell", "ns")
	add("calib.chase_ns_per_hop", "ns")
	add("calib.memclr_gb_per_s", "GB/s")
	return m
}
