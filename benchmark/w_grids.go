package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rdgc/internal/bench"
	"rdgc/internal/bench/boyer"
	"rdgc/internal/bench/dynamicw"
	"rdgc/internal/bench/nbody"
	"rdgc/internal/bench/nucleic"
	"rdgc/internal/decay"
	"rdgc/internal/experiments"
	"rdgc/internal/heap"
)

// timeIt runs the timed section of a cell into res. Untraced, the section
// calls lap at points every pass reaches identically (see laps.go); traced, it
// runs under a span as one lap.
func timeIt(tr *tracer, res *cellResult, f func(lap func())) {
	if tr != nil {
		res.wall = tr.timed(func() { f(func() {}) })
		res.laps = []float64{res.wall.Seconds()}
		return
	}
	l := lapTimer{last: time.Now()}
	t0 := l.last
	f(l.lap)
	l.lap()
	res.wall = l.last.Sub(t0)
	res.laps = l.laps
}

// runSteps runs n decay steps, a lap every lapSteps.
func runSteps(w *decay.Workload, n int, lap func()) {
	for n > 0 {
		k := min(n, lapSteps)
		w.Run(k)
		n -= k
		lap()
	}
}

// sameMutator checks that every cell of a group allocated exactly the same
// words and objects: allocation is mutator-driven, so a collector must not
// move it.
func sameMutator(cells []cell, res []cellResult, group func(c *cell) string) error {
	first := map[string]int{}
	for i := range cells {
		g := group(&cells[i])
		j, ok := first[g]
		if !ok {
			first[g] = i
			continue
		}
		if res[i].AllocWords != res[j].AllocWords || res[i].AllocObjects != res[j].AllocObjects {
			return fmt.Errorf("%s allocated %d words / %d objects but %s allocated %d / %d",
				cells[i].name, res[i].AllocWords, res[i].AllocObjects,
				cells[j].name, res[j].AllocWords, res[j].AllocObjects)
		}
	}
	return nil
}

// decayConfig is the paper's central experiment as rdmsim runs it: half-life
// 1024 objects, inverse load factor 3.5, generation fraction 1/4, 16 steps,
// ten half-lives of warm-up.
func decayConfig(seed uint64, sc scale) experiments.DecayConfig {
	return experiments.DecayConfig{
		HalfLife: 1024, L: 3.5, G: 0.25, K: 16, Warmup: 10,
		Steps: sc.pick(400000, 20000),
		Seed:  int64(seed),
	}
}

// decayGrid: the radioactive-decay mutator under all seven collectors.
var decayGrid = workload{
	name:   "decay-grid",
	opUnit: "decay steps (objects allocated)",
	passS:  0.9,
	build: func(seed uint64, sc scale) (*grid, error) {
		cfg := decayConfig(seed, sc)
		g := &grid{}
		for _, nc := range fixedCollectors(cfg.HeapWords(), cfg.G, cfg.K) {
			nc := nc
			g.cells = append(g.cells, cell{
				name:      nc.key,
				collector: nc.key,
				run:       func(tr *tracer) (cellResult, error) { return runDecayCell(cfg, nc, tr) },
			})
		}
		g.check = func(res []cellResult) error {
			if err := sameMutator(g.cells, res, func(*cell) string { return "" }); err != nil {
				return err
			}
			// The paper's shape: stop-and-copy pays 1/(L-1), and the
			// non-predictive collector pays less.
			sc, np := windowMarkCons(&res[0].counts), windowMarkCons(&res[3].counts)
			if want := 1 / (cfg.L - 1); math.Abs(sc-want) > 0.15*want {
				return fmt.Errorf("semispace mark/cons %.4f is not within 15%% of 1/(L-1) = %.4f", sc, want)
			}
			if np >= sc {
				return fmt.Errorf("non-predictive mark/cons %.4f is not below semispace's %.4f", np, sc)
			}
			return nil
		}
		g.layers = func(ps *passStats, m map[string]float64) {
			m["sim_markcons_np_vs_sc"] = windowMarkCons(&ps.stat[3].first) / windowMarkCons(&ps.stat[0].first)
		}
		return g, nil
	},
}

// windowMarkCons is the mark/cons ratio of the measured window.
func windowMarkCons(c *counts) float64 {
	return float64(c.WindowWork) / float64(c.WindowAlloc)
}

// runDecayCell is experiments.measure with the heap in our hands: warm up,
// then the measured window, both on the clock (a CLI user waits for both).
func runDecayCell(cfg experiments.DecayConfig, nc namedCollector, tr *tracer) (cellResult, error) {
	var res cellResult
	t0 := time.Now()
	h := heap.New()
	c := nc.new(h)
	w := decay.NewWorkload(h, cfg.HalfLife, cfg.Seed)
	if tr != nil {
		tr.instrument(h, c, nc.key)
	}
	res.setupLaps = []float64{time.Since(t0).Seconds()}

	var alloc0 uint64
	var gc0 heap.GCStats
	timeIt(tr, &res, func(lap func()) {
		w.Warmup(cfg.Warmup)
		lap()
		alloc0, gc0 = h.Stats.WordsAllocated, *c.GCStats()
		runSteps(w, cfg.Steps, lap)
	})
	gc1 := c.GCStats()
	res.addHeap(h, c)
	res.Ops = h.Stats.ObjectsAllocated
	res.WindowAlloc = h.Stats.WordsAllocated - alloc0
	res.WindowWork = (gc1.WordsCopied - gc0.WordsCopied) + (gc1.WordsMarked - gc0.WordsMarked)
	res.WindowCollections = gc1.Collections - gc0.Collections
	return res, nil
}

// table3Programs are the self-verifying programs of Tables 2-3 at scales
// whose whole grid fits a pass of about two seconds: nbody and nucleic2 at the
// paper's scale, the phase workload at five phases and nboyer at scale 1
// (nboyer2 alone is nine seconds here, seven of them under mark/sweep).
func table3Programs(seed uint64, sc scale) []struct {
	key string
	mk  func() bench.Program
} {
	return []struct {
		key string
		mk  func() bench.Program
	}{
		{"nbody", func() bench.Program { return nbody.New(sc.pick(24, 10), sc.pick(30, 10)) }},
		{"nucleic", func() bench.Program { return nucleic.New(sc.pick(14, 10), 2) }},
		{"dynamic", func() bench.Program {
			p := dynamicw.New(sc.pick(3, 2))
			p.Seed = int64(seed)
			if sc.quick {
				p.PhaseWords = 30000
			}
			return p
		}},
		{"nboyer", func() bench.Program { return boyer.New(1, false) }},
	}
}

// table3Grid: four benchmark programs under the seven growing collectors
// gcbench uses, through bench.Measure.
var table3Grid = workload{
	name:   "table3-grid",
	opUnit: "objects allocated",
	passS:  1.35,
	build: func(seed uint64, sc scale) (*grid, error) {
		g := &grid{}
		for _, p := range table3Programs(seed, sc) {
			p := p
			if sc.quick && p.key == "nboyer" {
				continue // nboyer1 is the smallest scale and too slow for the smoke test
			}
			for _, nc := range growingCollectors(p.mk().HeapWords()) {
				nc := nc
				g.cells = append(g.cells, cell{
					name:      p.key + "/" + nc.key,
					collector: nc.key,
					program:   p.key,
					run: func(tr *tracer) (cellResult, error) {
						var res cellResult
						t0 := time.Now()
						prog := p.mk()
						h := heap.New()
						c := nc.new(h)
						if tr != nil {
							tr.instrument(h, c, nc.key)
						}
						res.setupLaps = []float64{time.Since(t0).Seconds()}
						var out bench.RunResult
						timeIt(tr, &res, func(lap func()) {
							if tr == nil {
								h.SetAfterGC(lap) // a lap per collection
							}
							out = bench.Measure(prog, h, c)
						})
						if out.Err != nil {
							return res, fmt.Errorf("%s: wrong result: %w", prog.Name(), out.Err)
						}
						res.addHeap(h, c)
						res.Ops = h.Stats.ObjectsAllocated
						return res, nil
					},
				})
			}
		}
		g.check = func(res []cellResult) error {
			return sameMutator(g.cells, res, func(c *cell) string { return c.program })
		}
		return g, nil
	},
}

// gc-stress sizes: a spine vector of spineSlots lists of listPairs pairs.
const (
	stressSpine   = 256
	stressList    = 512
	stressScratch = 32  // scratch vectors per round ...
	stressVector  = 127 // ... of this many payload words: 4 Ki words a round
)

// gcStress: a large live graph, a little allocation, and an explicit
// collection every round, so that tracing, sweeping and remembered-set
// scanning are nearly all the work.
var gcStress = workload{
	name:   "gc-stress",
	opUnit: "rounds (one explicit collection each)",
	passS:  1.5,
	build: func(seed uint64, sc scale) (*grid, error) {
		spine, list := sc.pick(stressSpine, 64), sc.pick(stressList, 64)
		rounds := sc.pick(32, 6)
		live := spine * list * 3
		g := &grid{}
		for _, nc := range fixedCollectors(3*live, 0.25, 16) {
			nc := nc
			g.cells = append(g.cells, cell{
				name:      nc.key,
				collector: nc.key,
				run: func(tr *tracer) (cellResult, error) {
					return runStressCell(nc, tr, int64(seed), spine, list, rounds)
				},
			})
		}
		g.check = func(res []cellResult) error {
			return sameMutator(g.cells, res, func(*cell) string { return "" })
		}
		return g, nil
	},
}

// buildList conses a list of n fixnums and returns it in the caller's scope.
func buildList(h *heap.Heap, n int) heap.Ref {
	s := h.Scope()
	l := h.Null()
	for i := 0; i < n; i++ {
		l = h.Cons(h.Fix(int64(i)), l)
	}
	return s.Return(l)
}

func runStressCell(nc namedCollector, tr *tracer, seed int64, spine, list, rounds int) (cellResult, error) {
	var res cellResult
	step := timeLaps(&res.setupLaps)
	h := heap.New()
	c := nc.new(h)
	root := h.Scope()
	defer root.Close()
	sp := h.Global(h.MakeVector(spine, h.Null()))
	for i := 0; i < spine; i++ {
		s := h.Scope()
		h.VectorSet(sp, i, buildList(h, list))
		s.Close()
		if i%16 == 15 {
			step()
		}
	}
	c.Collect() // settle the graph where each collector keeps old data
	rng := rand.New(rand.NewSource(seed))
	if tr != nil {
		tr.instrument(h, c, nc.key)
	}
	step()
	alloc0, objs0, gc0 := h.Stats.WordsAllocated, h.Stats.ObjectsAllocated, *c.GCStats()

	timeIt(tr, &res, func(lap func()) {
		for r := 0; r < rounds; r++ {
			s := h.Scope()
			// An old-to-young store through the barrier.
			h.VectorSet(sp, rng.Intn(spine), buildList(h, list))
			for i := 0; i < stressScratch; i++ {
				h.MakeVector(stressVector, h.Null())
			}
			s.Close()
			if tr != nil {
				tr.collect(c)
			} else {
				c.Collect()
			}
			lap()
		}
	})

	// Only the timed rounds count: the build is set-up.
	gc1 := *c.GCStats()
	res.AllocWords = h.Stats.WordsAllocated - alloc0
	res.AllocObjects = h.Stats.ObjectsAllocated - objs0
	res.Ops = uint64(rounds)
	res.Collections = gc1.Collections - gc0.Collections
	res.Major = gc1.MajorCollections - gc0.MajorCollections
	res.Copied = gc1.WordsCopied - gc0.WordsCopied
	res.Marked = gc1.WordsMarked - gc0.WordsMarked
	res.Swept = gc1.WordsSwept - gc0.WordsSwept
	res.Promoted = gc1.WordsPromoted - gc0.WordsPromoted
	res.Tenured = gc1.WordsTenured - gc0.WordsTenured
	res.RemsetPeak = gc1.RemsetPeak
	res.RemsetScanned = gc1.RemsetScanned - gc0.RemsetScanned
	res.Pauses = gc1.Pauses

	if err := heap.Check(h); err != nil {
		return res, err
	}
	if err := heap.VerifyCollector(h, c); err != nil {
		return res, err
	}
	for i := 0; i < spine; i++ {
		s := h.Scope()
		n := h.ListLen(h.VectorRef(sp, i))
		s.Close()
		if n != list {
			return res, fmt.Errorf("list %d has %d pairs, want %d", i, n, list)
		}
	}
	return res, nil
}
