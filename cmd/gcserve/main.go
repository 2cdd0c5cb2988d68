// Command gcserve simulates a sharded multi-tenant server over the
// simulated heap: a deterministic open-loop load generator drives N
// independent heap shards, GC pauses are charged to the requests that wait
// for them, and the report's headline numbers are the request-latency
// tails (p50/p99/p999/max in ticks of the words-per-tick service clock).
//
// Identical seed and configuration produce byte-identical stdout for every
// -parallel value; progress lines go to stderr. See DESIGN.md "Server
// simulation".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rdgc/internal/gc/collectors"
	"rdgc/internal/heap"
	"rdgc/internal/runner"
	"rdgc/internal/serve"
)

func main() {
	collector := flag.String("collector", "generational",
		fmt.Sprintf("per-shard collector: %s", strings.Join(collectors.Names(), ", ")))
	shards := flag.Int("shards", 4, "independent heap shards")
	heapWords := flag.Int("heap", 1<<17, "per-shard collector sizing in `words`")
	wpt := flag.Int("wpt", 64, "service clock: words of work per tick")

	seed := flag.Uint64("seed", 1, "load-generator seed")
	arrival := flag.String("arrival", serve.ArrivalPoisson, "session arrival process: poisson or mmpp")
	horizon := flag.Uint64("horizon", 100000, "load horizon in `ticks`")
	sessionEvery := flag.Float64("session-every", 600, "mean ticks between session arrivals")
	requestEvery := flag.Float64("request-every", 60, "mean ticks between a session's requests")
	sessionMin := flag.Float64("session-min", 1500, "Pareto session-lifetime minimum, ticks")
	sessionAlpha := flag.Float64("session-alpha", 1.6, "Pareto session-lifetime shape")
	requestWords := flag.Int("request-words", 400, "mean handler allocation per request, `words`")
	retain := flag.Int("retain", 128, "session state linked per request, `words` (negative disables)")
	slots := flag.Int("slots", 12, "session ring-buffer slots")
	profiles := flag.String("profiles", "", "comma-separated allocation profiles: registry program names or trace:PATH (default nboyer1,nucleic2,2dyninfer)")
	burstRate := flag.Float64("burst-rate", 8, "mmpp: burst-state arrival-rate multiplier")
	burstEvery := flag.Float64("burst-every", 20000, "mmpp: mean quiet dwell, ticks")
	burstTicks := flag.Float64("burst-ticks", 2500, "mmpp: mean burst dwell, ticks")

	runOpts := runner.Flags(flag.CommandLine)
	gcConfig := heap.ConfigFlags(flag.CommandLine)
	jsonOut := flag.Bool("json", false, "emit the full result as JSON instead of the table")
	flag.Parse()

	// serve.Run refuses these too; caught here they are a usage error.
	for _, f := range []struct {
		name string
		v    int
	}{{"shards", *shards}, {"heap", *heapWords}, {"wpt", *wpt}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "gcserve: -%s %d: must not be negative (0 selects the default)\n", f.name, f.v)
			flag.Usage()
			os.Exit(2)
		}
	}

	var profileNames []string
	if *profiles != "" {
		profileNames = strings.Split(*profiles, ",")
	}
	gc, opts := gcConfig(), runOpts()
	cfg := serve.Config{
		Load: serve.LoadConfig{
			Seed:            *seed,
			Arrival:         *arrival,
			HorizonTicks:    *horizon,
			SessionEvery:    *sessionEvery,
			RequestEvery:    *requestEvery,
			SessionMinTicks: *sessionMin,
			SessionAlpha:    *sessionAlpha,
			RequestWords:    *requestWords,
			RetainWords:     *retain,
			SessionSlots:    *slots,
			Profiles:        profileNames,
			BurstRate:       *burstRate,
			BurstEvery:      *burstEvery,
			BurstTicks:      *burstTicks,
		},
		Collector:    *collector,
		Shards:       *shards,
		HeapWords:    *heapWords,
		WordsPerTick: *wpt,
		Incremental:  gc.Incremental,
		SliceBudget:  gc.SliceBudget,
		Tenure:       gc.Tenure,
		Adaptive:     gc.Adaptive,
		Parallel:     opts.Workers,
		Progress:     opts.Progress,
	}
	res, err := serve.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcserve:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "gcserve:", err)
			os.Exit(1)
		}
		return
	}
	res.WriteReport(os.Stdout)
}
