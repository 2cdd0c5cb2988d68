package main

import (
	"fmt"

	"rdgc/internal/bench"
	"rdgc/internal/serve"
)

// serveModes are the ten cells: every collector stop-the-world, the two
// mark/sweep collectors incremental, the generational collector adaptive.
var serveModes = []struct {
	collector             string
	incremental, adaptive bool
}{
	{"semispace", false, false},
	{"marksweep", false, false},
	{"generational", false, false},
	{"nonpredictive", false, false},
	{"hybrid", false, false},
	{"multigen", false, false},
	{"npms", false, false},
	{"marksweep", true, false},
	{"npms", true, false},
	{"generational", false, true},
}

// sampleProfile does for one profile what serve.ResolveProfiles does on its
// first call in a process, through the same public sampler: look the
// profile's program up and run it once under a counting sink. The serve
// package caches the result for the life of the process, so its own cold call
// can be timed once only; this one repeats every pass, and set-up time is a
// best-of like the rest.
func sampleProfile(name string) error {
	prog, err := bench.ByName(name, true)
	if err != nil {
		if prog, err = bench.ByName(name, false); err != nil {
			return err
		}
	}
	_, err = bench.SampleProfile(prog)
	return err
}

// progressLaps ends a lap at every line serve.Run writes to its progress
// side channel: one per finished shard.
type progressLaps func()

func (lap progressLaps) Write(p []byte) (int, error) {
	lap()
	return len(p), nil
}

// serveGrid: the sharded server simulation, a simulated open loop at a fixed
// offered rate (Poisson session arrivals, mean gaps in ticks). Latency is in
// ticks from each request's scheduled arrival and is a sim number; the host
// side is batch: requests simulated per host second.
var serveGrid = workload{
	name:   "serve-grid",
	opUnit: "simulated requests",
	passS:  1.35,
	build: func(seed uint64, sc scale) (*grid, error) {
		load := serve.LoadConfig{Seed: seed, HorizonTicks: uint64(sc.pick(80000, 8000))}
		g := &grid{}
		step := timeLaps(&g.setupLaps)
		sched, err := serve.Generate(load)
		if err != nil {
			return nil, err
		}
		step()
		g.digest = fmt.Sprintf("%d requests, %d sessions", len(sched.Requests), len(sched.Sessions))
		for _, name := range sched.Cfg.Profiles {
			if err := sampleProfile(name); err != nil {
				return nil, err
			}
			step()
		}
		// Fill the package's cache, so that no cell pays for it.
		if _, err := serve.ResolveProfiles(sched.Cfg.Profiles); err != nil {
			return nil, err
		}
		step()
		g.hostLayers = map[string]float64{
			"serve.generate_s":         g.setupLaps[0],
			"serve.resolve_profiles_s": sum(g.setupLaps[1 : 1+len(sched.Cfg.Profiles)]),
		}

		for _, m := range serveModes {
			m := m
			name := m.collector
			if m.incremental {
				name += "+incremental"
			}
			if m.adaptive {
				name += "+adaptive"
			}
			cfg := serve.Config{
				Load:         load,
				Collector:    m.collector,
				Shards:       4,
				HeapWords:    1 << 16,
				WordsPerTick: 256,
				Incremental:  m.incremental,
				Adaptive:     m.adaptive,
				Parallel:     1, // shards run one after another in every timed section
			}
			g.cells = append(g.cells, cell{
				name:      name,
				collector: m.collector,
				run: func(tr *tracer) (cellResult, error) {
					var res cellResult
					var out *serve.Result
					var err error
					// serve.Run builds its heaps inside, out of reach; its
					// progress line per finished shard is the only lap there is.
					timeIt(tr, &res, func(lap func()) {
						cfg := cfg
						cfg.Progress = progressLaps(lap)
						out, err = serve.Run(cfg)
					})
					if err != nil {
						return res, err
					}
					a := out.Agg
					for i := range out.Shards {
						res.addGC(&out.Shards[i].GC)
					}
					res.AllocWords = a.WordsAlloc
					res.Requests, res.Ops, res.Sessions = a.Requests, a.Requests, a.Sessions
					res.ServePauseW = a.WordsPause
					res.Latency = a.Latency
					return res, nil
				},
			})
		}
		g.check = func(res []cellResult) error {
			for i := range res {
				if res[i].Requests != uint64(len(sched.Requests)) {
					return fmt.Errorf("%s served %d requests, the schedule holds %d",
						g.cells[i].name, res[i].Requests, len(sched.Requests))
				}
				if res[i].AllocWords != res[0].AllocWords || res[i].Sessions != res[0].Sessions {
					return fmt.Errorf("%s: handlers allocated %d words over %d sessions, %s %d over %d",
						g.cells[i].name, res[i].AllocWords, res[i].Sessions,
						g.cells[0].name, res[0].AllocWords, res[0].Sessions)
				}
			}
			return nil
		}
		g.layers = func(ps *passStats, m map[string]float64) {
			t := ps.total()
			m["serve.sim_pause_words"] = float64(t.ServePauseW)
			m["serve.sim_alloc_words"] = float64(t.AllocWords)
			m["sim_latency_p50_ticks"] = float64(t.Latency.P50())
			m["sim_latency_p999_ticks"] = float64(t.Latency.P999())
			// Every cell generates the schedule again inside serve.Run
			// (profiles are cached by then); the rest of a cell is its shards.
			shards := ps.wallS() - float64(len(ps.cells))*best(ps.hostLayer["serve.generate_s"])
			m["serve.ns_per_request"] = 1e9 * shards / float64(t.Requests)
		}
		return g, nil
	},
}
