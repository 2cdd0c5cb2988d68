package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"rdgc/internal/gc/collectors"
	"rdgc/internal/heap"
	"rdgc/internal/runner"
)

// Config configures one server-simulation run: the load, the per-shard
// collector, and the clock that converts words of work into ticks.
type Config struct {
	Load LoadConfig

	// Collector names the per-shard collector (see collectors.Names).
	// Default "generational".
	Collector string

	// Shards is the number of independent heap shards (default 4).
	Shards int

	// HeapWords sizes each shard's collector, as collectors.Grid does for
	// trace replay (default 1<<17).
	HeapWords int

	// WordsPerTick is the service clock: how many words of work — handler
	// allocation plus GC pause words — one tick covers (default 64). The
	// simulation has no wall time; this is the explicit words-as-time
	// assumption the latency numbers rest on.
	WordsPerTick int

	// The heap.Config of every shard heap, field by field (flat, because
	// the JSON report prints these names).
	Incremental bool
	SliceBudget int
	Tenure      int
	Adaptive    bool

	// Parallel is the runner worker-pool size for executing shards
	// (0 = GOMAXPROCS or $RDGC_PARALLEL). It affects wall-clock only:
	// results are identical for every value.
	Parallel int

	// Progress, when non-nil, receives per-shard completion lines
	// (normally os.Stderr, never stdout). Excluded from JSON: it is a side
	// channel, not part of the result.
	Progress io.Writer `json:"-"`
}

func (c Config) withDefaults() Config {
	c.Load = c.Load.withDefaults()
	if c.Collector == "" {
		c.Collector = "generational"
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.HeapWords == 0 {
		c.HeapWords = 1 << 17
	}
	if c.WordsPerTick == 0 {
		c.WordsPerTick = 64
	}
	if c.Tenure == 0 {
		c.Tenure = 1
	}
	return c
}

// Aggregate is the run-level rollup of the per-shard results. Fixed-size
// fields only, so it is comparable with ==.
type Aggregate struct {
	Sessions    uint64
	Requests    uint64
	WordsAlloc  uint64
	WordsPause  uint64
	Collections int
	Major       int
	Footprint   int    // sum of shard footprints
	Makespan    uint64 // latest shard completion tick
	Latency     heap.PauseHist
	GCPauses    heap.PauseHist
}

// RequestsPerKilotick is the headline throughput: completed requests per
// thousand ticks of makespan.
func (a Aggregate) RequestsPerKilotick() float64 {
	if a.Makespan == 0 {
		return 0
	}
	return 1000 * float64(a.Requests) / float64(a.Makespan)
}

// Result is one full simulation run: the effective configuration, every
// shard's measurement in shard order, and the aggregate.
type Result struct {
	Cfg    Config
	Shards []ShardResult
	Agg    Aggregate
}

// Run executes the simulation: generate the schedule, resolve the
// allocation profiles, then run every shard as an independent cell under
// the runner. Identical Config (including Seed) yields an identical Result
// regardless of Parallel, because shards share no live state (only the
// recycler their heaps take cleared arenas from) and results come back in
// submission order.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	for _, f := range []struct {
		name string
		v    int
	}{{"shards", cfg.Shards}, {"heap words", cfg.HeapWords}, {"words per tick", cfg.WordsPerTick}} {
		if f.v < 0 {
			return nil, fmt.Errorf("serve: negative %s %d (0 selects the default)", f.name, f.v)
		}
	}
	sched, err := Generate(cfg.Load)
	if err != nil {
		return nil, err
	}
	cfg.Load = sched.Cfg
	// Every shard builds its own collector from this constructor, so no
	// heap is made before the name is known to be good.
	nc, err := collectors.Pick(collectors.Grid(cfg.HeapWords), cfg.Collector)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	profiles, err := ResolveProfiles(cfg.Load.Profiles)
	if err != nil {
		return nil, err
	}

	// The shards' heaps recycle one another's arenas: a shard that starts
	// after another has finished builds its spaces on the memory that one
	// released. The recycler lives as long as this run.
	arenas := new(heap.Arenas)
	specs := make([]runner.Spec[ShardResult], cfg.Shards)
	for i := range specs {
		i := i
		reqs := sched.ShardRequests(i, cfg.Shards)
		specs[i] = runner.Spec[ShardResult]{
			Name: fmt.Sprintf("%s/shard%02d", cfg.Collector, i),
			Run: func() (ShardResult, error) {
				return runShard(cfg, nc, i, reqs, profiles, arenas), nil
			},
			Words: func(r ShardResult) uint64 { return r.WordsAlloc + r.WordsPause },
		}
	}
	res := &Result{Cfg: cfg}
	for _, cell := range runner.Run(specs, runner.Options{
		Workers:  cfg.Parallel,
		Progress: cfg.Progress,
	}) {
		if cell.Err != nil {
			return nil, fmt.Errorf("serve: %s: %w", cell.Name, cell.Err)
		}
		res.Shards = append(res.Shards, cell.Value)
	}
	res.Agg = aggregate(res.Shards)
	return res, nil
}

func aggregate(shards []ShardResult) Aggregate {
	var a Aggregate
	for i := range shards {
		s := &shards[i]
		a.Sessions += s.Sessions
		a.Requests += s.Requests
		a.WordsAlloc += s.WordsAlloc
		a.WordsPause += s.WordsPause
		a.Collections += s.GC.Collections
		a.Major += s.GC.MajorCollections
		a.Footprint += s.Footprint
		if s.FinalTick > a.Makespan {
			a.Makespan = s.FinalTick
		}
		a.Latency.Merge(&s.Latency)
		a.GCPauses.Merge(&s.GC.Pauses)
	}
	return a
}

// onoff renders a boolean knob the way the drivers' reports do.
func onoff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// WriteReport prints the deterministic text report: configuration echo,
// aggregate line, latency tail, and the per-shard table. A knob the
// collector does not honour echoes as n/a, whatever it was set to. Nothing
// here depends on wall time or worker count, so the bytes are stable for a
// given Config.
func (r *Result) WriteReport(w io.Writer) {
	c := r.Cfg
	e, _ := collectors.Lookup(c.Collector) // Run refused any other name
	knob := func(k collectors.Knobs, v string) string {
		if !e.Honours(k) {
			return "n/a"
		}
		return v
	}
	fmt.Fprintf(w, "gcserve: collector=%s shards=%d heap=%dw wpt=%d incr=%s adapt=%s tenure=%s\n",
		c.Collector, c.Shards, c.HeapWords, c.WordsPerTick,
		knob(collectors.Incremental, onoff(c.Incremental)),
		knob(collectors.Tenuring, onoff(c.Adaptive)), knob(collectors.Tenuring, strconv.Itoa(c.Tenure)))
	fmt.Fprintf(w, "load: arrival=%s seed=%d horizon=%d session-every=%g request-every=%g pareto=(%g,%g) profiles=%s\n",
		c.Load.Arrival, c.Load.Seed, c.Load.HorizonTicks, c.Load.SessionEvery,
		c.Load.RequestEvery, c.Load.SessionMinTicks, c.Load.SessionAlpha,
		strings.Join(c.Load.Profiles, ","))
	a := r.Agg
	fmt.Fprintf(w, "agg: sessions=%d requests=%d reqs/ktick=%.2f alloc=%dw gc-pause=%dw collections=%d (major %d) footprint=%dw makespan=%d\n",
		a.Sessions, a.Requests, a.RequestsPerKilotick(), a.WordsAlloc, a.WordsPause,
		a.Collections, a.Major, a.Footprint, a.Makespan)
	fmt.Fprintf(w, "latency ticks: p50=%d p99=%d p999=%d max=%d\n",
		a.Latency.P50(), a.Latency.P99(), a.Latency.P999(), a.Latency.MaxWords)
	fmt.Fprintf(w, "%-6s %8s %8s %12s %12s %6s %8s %8s %8s %8s %10s\n",
		"shard", "sess", "reqs", "alloc", "gc-pause", "gcs", "p50", "p99", "p999", "max", "footprint")
	for _, s := range r.Shards {
		fmt.Fprintf(w, "%-6d %8d %8d %12d %12d %6d %8d %8d %8d %8d %10d\n",
			s.Shard, s.Sessions, s.Requests, s.WordsAlloc, s.WordsPause,
			s.GC.Collections, s.Latency.P50(), s.Latency.P99(), s.Latency.P999(),
			s.Latency.MaxWords, s.Footprint)
	}
}
