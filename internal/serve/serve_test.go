package serve

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"rdgc/internal/gc/collectors"
	"rdgc/internal/heap"
)

// smallConfig is a grid cell small enough for unit tests but busy enough
// to exercise collections and session retention.
func smallConfig() Config {
	return Config{
		Load:      LoadConfig{Seed: 1, HorizonTicks: 12000},
		HeapWords: 1 << 13, // small enough that every collector of the grid collects

		Shards: 3,
	}
}

// TestRunDeterministicAcrossParallel is the conformance pin for the
// subsystem's headline contract: identical seed and config produce an
// identical Result — and byte-identical report — whether the shards run on
// one runner worker or many.
func TestRunDeterministicAcrossParallel(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallel = 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 4
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel differs by construction; everything measured must not.
	a.Cfg.Parallel, b.Cfg.Parallel = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatal("results diverge across runner worker counts")
	}
	var ra, rb bytes.Buffer
	a.WriteReport(&ra)
	b.WriteReport(&rb)
	if !bytes.Equal(ra.Bytes(), rb.Bytes()) {
		t.Fatalf("reports diverge across runner worker counts:\n%s\nvs\n%s", ra.String(), rb.String())
	}

	// ShardResult and Aggregate are comparable by design, so the per-shard
	// pin can be ==, the strongest equality Go offers.
	for i := range a.Shards {
		if a.Shards[i] != b.Shards[i] {
			t.Fatalf("shard %d diverges:\n%+v\nvs\n%+v", i, a.Shards[i], b.Shards[i])
		}
	}
	if a.Agg != b.Agg {
		t.Fatal("aggregates diverge")
	}
}

// TestRunAllCollectors smoke-tests every collector of the grid under the
// server load and checks the measurement invariants that must hold
// everywhere: every request is served and measured exactly once, the heaps
// actually collect, and pause words reach the latency accounting.
func TestRunAllCollectors(t *testing.T) {
	sched, err := Generate(LoadConfig{Seed: 1, HorizonTicks: 12000})
	if err != nil {
		t.Fatal(err)
	}
	wantReqs := uint64(len(sched.Requests))
	for _, name := range collectors.Names() {
		cfg := smallConfig()
		cfg.Collector = name
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Agg.Requests != wantReqs {
			t.Fatalf("%s: served %d requests, schedule has %d", name, res.Agg.Requests, wantReqs)
		}
		if res.Agg.Latency.Count != wantReqs {
			t.Fatalf("%s: %d latency samples for %d requests", name, res.Agg.Latency.Count, wantReqs)
		}
		if res.Agg.Collections == 0 || res.Agg.WordsPause == 0 {
			t.Fatalf("%s: load too light to measure GC (collections=%d, pause=%d)",
				name, res.Agg.Collections, res.Agg.WordsPause)
		}
		if res.Agg.Makespan < res.Cfg.Load.HorizonTicks {
			t.Fatalf("%s: makespan %d before the load horizon %d",
				name, res.Agg.Makespan, res.Cfg.Load.HorizonTicks)
		}
		if res.Agg.Footprint == 0 {
			t.Fatalf("%s: zero footprint", name)
		}
	}
}

// TestRunShardCountsPartitionWork pins that resharding moves sessions, not
// work: the same schedule served by 1 and by 5 shards answers the same
// requests with the same total allocation (per-shard heaps collect on
// their own cadence, so GC-side numbers legitimately differ).
func TestRunShardCountsPartitionWork(t *testing.T) {
	one := smallConfig()
	one.Shards = 1
	five := smallConfig()
	five.Shards = 5
	a, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(five)
	if err != nil {
		t.Fatal(err)
	}
	if a.Agg.Requests != b.Agg.Requests || a.Agg.Sessions != b.Agg.Sessions {
		t.Fatalf("request/session totals moved with the shard count: %+v vs %+v", a.Agg, b.Agg)
	}
	if a.Agg.WordsAlloc != b.Agg.WordsAlloc {
		t.Fatalf("handler allocation moved with the shard count: %d vs %d",
			a.Agg.WordsAlloc, b.Agg.WordsAlloc)
	}
}

// TestModesEngage runs the incremental-capable and tenuring
// collectors with their modes on, checking the knobs engage (incremental
// marking multiplies pause count; the adaptive controller reports
// adaptations) rather than merely not crashing.
func TestModesEngage(t *testing.T) {
	stw := smallConfig()
	stw.Collector = "marksweep"
	base, err := Run(stw)
	if err != nil {
		t.Fatal(err)
	}
	incr := stw
	incr.Incremental = true
	inc, err := Run(incr)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Agg.GCPauses.Count <= base.Agg.GCPauses.Count {
		t.Fatalf("incremental mode did not slice pauses: %d vs %d stop-the-world",
			inc.Agg.GCPauses.Count, base.Agg.GCPauses.Count)
	}

	ad := smallConfig()
	ad.Collector = "generational"
	ad.Tenure = 4
	ad.Adaptive = true
	res, err := Run(ad)
	if err != nil {
		t.Fatal(err)
	}
	var adaptations int
	for _, s := range res.Shards {
		adaptations += s.GC.PolicyAdaptations
	}
	if adaptations == 0 {
		t.Fatal("adaptive mode reported no policy adaptations")
	}
}

// TestIncrementalCollapsesLatencyTail holds the headline of EXPERIMENTS.md
// "GC pauses as request-latency tails" at the table's configuration
// (gcserve -shards 4 -heap 65536 -wpt 256 -horizon 60000, seed 1): slicing
// the mark/sweep collectors' pauses cuts request p99 several-fold and leaves
// p50 where it was. Relations, not goldens — the benchmark's serve-grid
// sim_digest pins the exact values.
func TestIncrementalCollapsesLatencyTail(t *testing.T) {
	for _, tc := range []struct {
		collector string
		factor    uint64 // stop-the-world p99 / incremental p99, at least
	}{
		{"marksweep", 5},
		{"npms", 2},
	} {
		var p99 [2]uint64
		for i, incremental := range []bool{false, true} {
			res, err := Run(Config{
				Load:         LoadConfig{Seed: 1, HorizonTicks: 60000},
				Collector:    tc.collector,
				Shards:       4,
				HeapWords:    1 << 16,
				WordsPerTick: 256,
				Incremental:  incremental,
			})
			if err != nil {
				t.Fatal(err)
			}
			lat := &res.Agg.Latency
			if lat.P50() > 7 {
				t.Errorf("%s incremental=%v: p50 = %d ticks, want at most 7", tc.collector, incremental, lat.P50())
			}
			p99[i] = lat.P99()
		}
		if p99[1]*tc.factor > p99[0] {
			t.Errorf("%s: incremental p99 = %d ticks against %d stop-the-world, want at most a %dth",
				tc.collector, p99[1], p99[0], tc.factor)
		}
	}
}

// TestRunUnknownCollector pins the error path before any shard runs.
func TestRunUnknownCollector(t *testing.T) {
	cfg := smallConfig()
	cfg.Collector = "refcount"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown collector accepted")
	}
}

// TestRunRejectsNegativeSizing: a negative shard count, heap size or service
// clock is an error before anything runs — not a makeslice panic, a report
// of zero latencies, or a silently substituted heap — and zero is still the
// default.
func TestRunRejectsNegativeSizing(t *testing.T) {
	for _, edit := range []func(*Config){
		func(c *Config) { c.Shards = -1 },
		func(c *Config) { c.HeapWords = -5 },
		func(c *Config) { c.WordsPerTick = -3 },
	} {
		cfg := smallConfig()
		edit(&cfg)
		if res, err := Run(cfg); err == nil {
			t.Errorf("shards=%d heap=%d wpt=%d accepted", res.Cfg.Shards, res.Cfg.HeapWords, res.Cfg.WordsPerTick)
		}
	}
	cfg := smallConfig()
	cfg.Shards, cfg.WordsPerTick = 0, 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cfg.Shards != 4 || res.Cfg.WordsPerTick != 64 {
		t.Errorf("zero sizing ran as shards=%d wpt=%d, want the defaults 4 and 64", res.Cfg.Shards, res.Cfg.WordsPerTick)
	}
}

// TestShardLeavesOldToSpaceReserved: a multigen shard at the default sizes
// runs minor collections only, so its old to-space, which only a major
// collection evacuates into, stays a reservation for the whole run — no
// memory, and still its full capacity in the footprint.
func TestShardLeavesOldToSpaceReserved(t *testing.T) {
	cfg := Config{Collector: "multigen", Load: LoadConfig{Seed: 1, HorizonTicks: 20000}}.withDefaults()
	sched, err := Generate(cfg.Load)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := ResolveProfiles(sched.Cfg.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := collectors.Pick(collectors.Grid(cfg.HeapWords), cfg.Collector)
	if err != nil {
		t.Fatal(err)
	}
	s := newShard(cfg, nc, 0, profiles)
	res := s.run(sched.ShardRequests(0, cfg.Shards))
	if res.GC.Collections == 0 || res.GC.MajorCollections != 0 {
		t.Fatalf("%d collections, %d major; the test wants minors only", res.GC.Collections, res.GC.MajorCollections)
	}
	var footprint int
	for _, sp := range s.h.Spaces {
		if sp.Name == "gen-old-B" && sp.Mem != nil {
			t.Errorf("%v has memory, and no collection evacuated into it", sp)
		}
		footprint += sp.BlocksReserved() * heap.BlockWords
	}
	if res.Footprint != footprint {
		t.Errorf("footprint %d words, the spaces reserve %d", res.Footprint, footprint)
	}
}

// gridCell is one serve-grid cell at its quick scale: four shards of 1<<16
// words under the default collector, run one after another.
func gridCell() Config {
	return Config{
		Load:         LoadConfig{Seed: 1, HorizonTicks: 8000},
		Shards:       4,
		HeapWords:    1 << 16,
		WordsPerTick: 256,
		Parallel:     1,
	}
}

// TestRunRecyclesArenas: the shards of one run hand their arenas on, so a
// four-shard run makes the spaces of its first shard and little else. The
// run allocates 1.6 MB with the recycler and 4.9 MB without it; the bound
// sits between, so reuse that stops fails here.
func TestRunRecyclesArenas(t *testing.T) {
	const bound = 3 << 20
	cfg := gridCell()
	// Fill the profile cache first, so that the measured run builds none.
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Errorf("a %d-shard run allocated %d bytes, want under %d", cfg.Shards, got, bound)
	}
}

// BenchmarkRun times one serve-grid cell per iteration: schedule, profiles
// (cached after the first) and four shards in turn. -benchmem's B/op is
// where the shards' recycled arenas show.
func BenchmarkRun(b *testing.B) {
	cfg := gridCell()
	for range b.N {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
