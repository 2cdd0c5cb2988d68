// Package rdgc's benchmark harness regenerates every table and figure of
// the paper. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports its headline quantity with b.ReportMetric — the
// mark/cons ratios, relative overheads, and survival rates whose *shape*
// EXPERIMENTS.md compares against the paper's numbers.
package rdgc

import (
	"fmt"
	"math/rand"
	"testing"

	"rdgc/internal/analytic"
	"rdgc/internal/bench"
	"rdgc/internal/bench/boyer"
	"rdgc/internal/bench/dynamicw"
	"rdgc/internal/bench/lattice"
	"rdgc/internal/bench/nbody"
	"rdgc/internal/bench/nucleic"
	"rdgc/internal/core"
	"rdgc/internal/decay"
	"rdgc/internal/experiments"
	"rdgc/internal/gc/gctest"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/hybrid"
	"rdgc/internal/gc/marksweep"
	"rdgc/internal/gc/multigen"
	"rdgc/internal/gc/npms"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// BenchmarkTable1 regenerates the worked trace of Table 1 and reports the
// steady-state mark/cons ratio (paper: 0.2).
func BenchmarkTable1(b *testing.B) {
	var mc float64
	for i := 0; i < b.N; i++ {
		mc = experiments.RunTable1(2).MarkCons
	}
	b.ReportMetric(mc, "mark/cons")
}

// BenchmarkFigure1Analytic evaluates the full analytic Figure 1 surface.
func BenchmarkFigure1Analytic(b *testing.B) {
	ls := []float64{1.5, 2, 3, 4, 6, 8}
	gs := analytic.SweepG(100)
	var points int
	for i := 0; i < b.N; i++ {
		points = 0
		for _, l := range ls {
			points += len(analytic.Figure1Series(l, gs))
		}
	}
	b.ReportMetric(float64(points), "points")
}

// BenchmarkFigure1Simulated measures one simulated point of Figure 1
// (L=3.5, g=0.25) with real collectors on the decay workload and reports
// the measured relative overhead next to Corollary 5's prediction.
func BenchmarkFigure1Simulated(b *testing.B) {
	cfg := experiments.DecayConfig{HalfLife: 768, L: 3.5, G: 0.25, Steps: 60000}
	var rel float64
	for i := 0; i < b.N; i++ {
		np := experiments.RunNonPredictive(cfg)
		ms := experiments.RunMarkSweep(cfg)
		rel = np.MarkCons / ms.MarkCons
	}
	b.ReportMetric(rel, "relative")
	b.ReportMetric(analytic.Relative(cfg.G, cfg.L), "predicted")
}

// BenchmarkTable2 runs the reduced-scale benchmark suite once per iteration
// — the inventory exists and every program verifies its own result.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range bench.Quick() {
			h := heap.New()
			semispace.New(h, 1<<15, semispace.WithExpansion(3))
			if err := p.Run(h); err != nil {
				b.Fatal(p.Name(), err)
			}
		}
	}
}

// benchTable3 runs one Table 3 row and reports both collectors' overheads.
func benchTable3(b *testing.B, mk func() bench.Program) {
	var row experiments.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.RunTable3Row(mk, experiments.DefaultTable3Config())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*row.GCRatioSC(), "sc-gc-%")
	b.ReportMetric(100*row.GCRatioGen(), "gen-gc-%")
}

func BenchmarkTable3(b *testing.B) {
	cases := []struct {
		name string
		mk   func() bench.Program
	}{
		{"nbody", func() bench.Program { return nbody.New(16, 30) }},
		{"nucleic2", func() bench.Program { return nucleic.New(12, 2) }},
		{"lattice", func() bench.Program {
			l := lattice.New(4, 3)
			l.Repeat = 3
			return l
		}},
		{"10dynamic", func() bench.Program { return dynamicw.New(6) }},
		{"nboyer2", func() bench.Program { return boyer.New(2, false) }},
		{"sboyer2", func() bench.Program { return boyer.New(2, true) }},
		{"sboyer3", func() bench.Program { return boyer.New(3, true) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchTable3(b, c.mk) })
	}
}

// benchSurvival runs one of Tables 4-7 and reports the survival rate of the
// youngest and oldest populated age classes.
func benchSurvival(b *testing.B, id string) {
	var exp experiments.SurvivalExperiment
	for _, e := range experiments.SurvivalExperiments() {
		if e.ID == id {
			exp = e
		}
	}
	var young, old float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunSurvival(exp)
		if err != nil {
			b.Fatal(err)
		}
		young, old = -1, -1
		for _, r := range rows {
			if r.Live < 1000 {
				continue
			}
			if young < 0 {
				young = r.Rate()
			}
			old = r.Rate()
		}
	}
	b.ReportMetric(100*young, "young-%")
	b.ReportMetric(100*old, "old-%")
}

func BenchmarkTable4(b *testing.B) { benchSurvival(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchSurvival(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchSurvival(b, "table6") }
func BenchmarkTable7(b *testing.B) { benchSurvival(b, "table7") }

// benchProfile regenerates one of Figures 2-4 and reports the peak live
// storage in megabytes (paper: 1.1, 2, and 1.3 respectively).
func benchProfile(b *testing.B, id string) {
	var exp experiments.ProfileExperiment
	for _, e := range experiments.ProfileExperiments() {
		if e.ID == id {
			exp = e
		}
	}
	var peak uint64
	for i := 0; i < b.N; i++ {
		p, err := experiments.RunProfile(exp)
		if err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, r := range p.Rows {
			if r.TotalLive > peak {
				peak = r.TotalLive
			}
		}
	}
	b.ReportMetric(float64(peak)*8/1e6, "peak-MB")
}

func BenchmarkFigure2(b *testing.B) { benchProfile(b, "figure2") }
func BenchmarkFigure3(b *testing.B) { benchProfile(b, "figure3") }
func BenchmarkFigure4(b *testing.B) { benchProfile(b, "figure4") }

// BenchmarkEquilibrium validates equation (1): live objects at equilibrium
// approach 1.4427h.
func BenchmarkEquilibrium(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		h := heap.New()
		semispace.New(h, 1<<19)
		w := decay.NewWorkload(h, 512, 42)
		w.Warmup(12)
		var sum float64
		for j := 0; j < 200; j++ {
			w.Run(64)
			sum += float64(w.LiveObjects())
		}
		ratio = (sum / 200) / analytic.EquilibriumLive(512)
	}
	b.ReportMetric(ratio, "live/predicted")
}

// BenchmarkDecayConventionalWorse measures Section 3's claim: a
// conventional generational collector does worse than a non-generational
// one under radioactive decay.
func BenchmarkDecayConventionalWorse(b *testing.B) {
	cfg := experiments.DecayConfig{HalfLife: 768, L: 3.5, Steps: 60000}
	var conv, ms float64
	for i := 0; i < b.N; i++ {
		conv = experiments.RunConventionalGenerational(cfg).MarkCons
		ms = experiments.RunMarkSweep(cfg).MarkCons
	}
	b.ReportMetric(conv/ms, "conv/nongen")
}

// BenchmarkDecayNonPredictiveWins measures the paper's headline: the
// non-predictive collector beats the non-generational one under decay.
func BenchmarkDecayNonPredictiveWins(b *testing.B) {
	cfg := experiments.DecayConfig{HalfLife: 768, L: 3.5, G: 0.25, Steps: 60000}
	var np, ms float64
	for i := 0; i < b.N; i++ {
		np = experiments.RunNonPredictive(cfg).MarkCons
		ms = experiments.RunMarkSweep(cfg).MarkCons
	}
	b.ReportMetric(np/ms, "np/nongen")
}

// BenchmarkAblationJPolicy compares j policies on the decay workload.
func BenchmarkAblationJPolicy(b *testing.B) {
	policies := []struct {
		name string
		p    core.JPolicy
	}{
		{"recommended", core.Recommended{}},
		{"fixed2", core.FixedJ(2)},
		{"zero", core.ZeroJ{}},
		{"fraction0.25", core.FractionJ(0.25)},
	}
	for _, pc := range policies {
		b.Run(pc.name, func(b *testing.B) {
			var mc float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.DecayConfig{HalfLife: 768, L: 3.5, Steps: 60000}
				h := heap.New()
				c := core.New(h, 16, cfg.HeapWords()/16, core.WithPolicy(pc.p))
				w := decay.NewWorkload(h, cfg.HalfLife, 1)
				w.Warmup(10)
				a0 := h.Stats.WordsAllocated
				c0 := c.GCStats().WordsCopied
				w.Run(cfg.Steps)
				mc = float64(c.GCStats().WordsCopied-c0) / float64(h.Stats.WordsAllocated-a0)
			}
			b.ReportMetric(mc, "mark/cons")
		})
	}
}

// BenchmarkAblationStepCount sweeps k on the decay workload: more steps
// give the collector finer control of g at the cost of smaller copy units.
func BenchmarkAblationStepCount(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var mc float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.DecayConfig{HalfLife: 768, L: 3.5, G: 0.25, K: k, Steps: 60000}
				mc = experiments.RunNonPredictive(cfg).MarkCons
			}
			b.ReportMetric(mc, "mark/cons")
		})
	}
}

// BenchmarkAblationRemset compares the remembered-set representations under
// a linking-heavy decay workload (§8.3's growth scenario).
func BenchmarkAblationRemset(b *testing.B) {
	reps := []struct {
		name string
		mk   func() remset.Set
	}{
		{"hashset", func() remset.Set { return remset.NewHashSet() }},
		{"ssb", func() remset.Set { return remset.NewSSB() }},
	}
	for _, rep := range reps {
		b.Run(rep.name, func(b *testing.B) {
			var peak int
			for i := 0; i < b.N; i++ {
				cfg := experiments.DecayConfig{HalfLife: 768, L: 3.5, G: 0.25, Steps: 60000}
				h := heap.New()
				c := core.New(h, 16, cfg.HeapWords()/16,
					core.WithPolicy(core.FractionJ(0.25)), core.WithRemset(rep.mk()))
				w := decay.NewWorkload(h, cfg.HalfLife, 1, decay.WithLinking(0.9))
				w.Warmup(10)
				w.Run(cfg.Steps)
				peak = c.GCStats().RemsetPeak
			}
			b.ReportMetric(float64(peak), "remset-peak")
		})
	}
}

// BenchmarkAblationNurserySize sweeps the conventional collector's nursery
// on the decay workload; no nursery size rescues youngest-first collection
// from the decay model.
func BenchmarkAblationNurserySize(b *testing.B) {
	for _, frac := range []float64{1.0 / 16, 1.0 / 8, 1.0 / 4} {
		b.Run(fmt.Sprintf("nursery=1/%d", int(1/frac)), func(b *testing.B) {
			var mc float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.DecayConfig{
					HalfLife: 768, L: 3.5, Steps: 60000, NurseryFraction: frac,
				}
				mc = experiments.RunConventionalGenerational(cfg).MarkCons
			}
			b.ReportMetric(mc, "mark/cons")
		})
	}
}

// BenchmarkAblationTenuring sweeps the number of aging generations in a
// multi-generation youngest-first collector under pure decay: no tenuring
// pipeline rescues youngest-first collection from the radioactive decay
// model.
func BenchmarkAblationTenuring(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("gens=%d", n), func(b *testing.B) {
			var mc float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.DecayConfig{HalfLife: 768, L: 3.5, Steps: 60000}
				mc = experiments.RunMultigen(cfg, n).MarkCons
			}
			b.ReportMetric(mc, "mark/cons")
		})
	}
}

// BenchmarkCrossoverInfantMortality sweeps the infant-mortality mixture
// from pure decay toward weak-generational behaviour (sharp infant
// half-life, light young load factor as §7 prescribes), reporting each
// collector's ratio to the non-generational baseline. The conventional
// collector crosses from losing badly to winning; the hybrid follows it
// down while the standalone non-predictive collector drifts toward parity
// (survival increasing with age is its §7-unfavourable case).
func BenchmarkCrossoverInfantMortality(b *testing.B) {
	for _, p := range []float64{0, 0.5, 0.8, 0.95} {
		b.Run(fmt.Sprintf("infant=%.2f", p), func(b *testing.B) {
			var convRel, npRel, hyRel float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.DecayConfig{
					HalfLife: 768, L: 3.5, G: 0.25, Steps: 60000,
					InfantProb: p, InfantHalfLife: 768.0 / 256,
					NurseryFraction: 0.25,
				}
				ms := experiments.RunMarkSweep(cfg)
				convRel = experiments.RunConventionalGenerational(cfg).MarkCons / ms.MarkCons
				npRel = experiments.RunNonPredictive(cfg).MarkCons / ms.MarkCons
				hyRel = experiments.RunHybrid(cfg).MarkCons / ms.MarkCons
			}
			b.ReportMetric(convRel, "conv/nongen")
			b.ReportMetric(npRel, "np/nongen")
			b.ReportMetric(hyRel, "hybrid/nongen")
		})
	}
}

// BenchmarkAblationObjectSize checks that the Section 5 analysis is
// independent of the object-size distribution: the measured mark/cons
// ratios for pairs, small vectors, and mixed sizes should all sit near
// Theorem 4's word-based prediction.
func BenchmarkAblationObjectSize(b *testing.B) {
	cases := []struct {
		name     string
		min, max int
	}{
		{"pairs", 0, 0},
		{"small-vectors", 1, 3},
		{"mixed", 1, 15},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var mc float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.DecayConfig{
					HalfLife: 768, L: 3.5, G: 0.25, Steps: 60000,
					SizeMin: c.min, SizeMax: c.max,
				}
				mc = experiments.RunNonPredictive(cfg).MarkCons
			}
			b.ReportMetric(mc, "mark/cons")
			b.ReportMetric(analytic.MarkCons(0.25, 3.5), "predicted")
		})
	}
}

// BenchmarkNonPredictiveMS measures the mark/sweep-based non-predictive
// collector (§8's intended variant) on the decay workload.
func BenchmarkNonPredictiveMS(b *testing.B) {
	cfg := experiments.DecayConfig{HalfLife: 768, L: 3.5, G: 0.25, Steps: 60000}
	var mc float64
	for i := 0; i < b.N; i++ {
		mc = experiments.RunNonPredictiveMS(cfg).MarkCons
	}
	b.ReportMetric(mc, "mark/cons")
}

// BenchmarkHeapAllocation measures the substrate's raw allocation path.
func BenchmarkHeapAllocation(b *testing.B) {
	h := heap.New()
	semispace.New(h, 1<<20)
	s := h.Scope()
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := h.Scope()
		h.Cons(h.Fix(int64(i)), h.Null())
		g.Close()
	}
}

// BenchmarkAccessors measures the mutator's typed accessors without
// allocation: each iteration walks a 64-pair list with IsPair/Car/Cdr and a
// 64-slot vector of flonums with VectorRef/FlonumVal inside one handle
// scope, and the time is reported per access (each call counts one).
func BenchmarkAccessors(b *testing.B) {
	const n = 64
	h := heap.New()
	semispace.New(h, 1<<16)
	s := h.Scope()
	defer s.Close()
	list := h.Null()
	vec := h.MakeVector(n, list)
	for i := 0; i < n; i++ {
		list = h.Cons(h.Fix(int64(i)), list)
		h.VectorSet(vec, i, h.Flonum(float64(i)))
	}
	const accesses = 3*n + 1 + 2*n // IsPair n+1 times, Car and Cdr n times; VectorRef and FlonumVal n times
	var sum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := h.Scope()
		for cur := list; h.IsPair(cur); cur = h.Cdr(cur) {
			h.Car(cur)
		}
		for j := 0; j < n; j++ {
			sum += h.FlonumVal(h.VectorRef(vec, j))
		}
		g.Close()
	}
	if sum != float64(b.N)*n*(n-1)/2 {
		b.Fatalf("the vector walk summed %g", sum)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accesses), "ns/access")
}

// BenchmarkDecayStep measures one step of the decay mutator at equilibrium —
// expire the deaths due, allocate a pair, draw its lifetime, schedule it —
// at the central experiment's h = 1024 on a stop-and-copy heap of inverse
// load factor 3.5, collections included: pure decay, whose lifetimes are
// drawn a batch ahead, and the linked workload of §8.3, which draws them one
// at a time between its other draws.
func BenchmarkDecayStep(b *testing.B) {
	for _, c := range []struct {
		name string
		opts []decay.Option
	}{
		{"pure", nil},
		{"linked", []decay.Option{decay.WithLinking(0.2)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := experiments.DecayConfig{HalfLife: 1024, L: 3.5}
			h := heap.New()
			semispace.New(h, cfg.HeapWords())
			w := decay.NewWorkload(h, cfg.HalfLife, 1, c.opts...)
			w.Warmup(10)
			b.ResetTimer()
			w.Run(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
		})
	}
}

// BenchmarkMinorCollection measures one nursery collection of the decay
// cell's shape on the shared evacuator: 1500 global roots, a 2 Ki-word
// nursery full of pairs each held by one of them (the other roots are empty
// slots), every pair copied out — a root scan and 682 three-word copies. The
// target of one collection is the nursery of the next, so nothing is rebuilt
// between iterations.
func BenchmarkMinorCollection(b *testing.B) {
	const roots, nurseryWords = 1500, 2048
	h := heap.New(heap.WithConfig(heap.Config{}))
	nursery, target := h.NewSpace("nursery-A", nurseryWords), h.NewSpace("nursery-B", nurseryWords)
	pairs := 0
	for i := 0; i < roots; i++ {
		// Full slots among empty ones, as deaths leave a slot table.
		w := heap.NullWord
		if i%2 == 0 {
			if off, ok := nursery.Bump(decay.ObjectWords); ok {
				w = h.InitObject(nursery, off, heap.TPair, 2)
				pairs++
			}
		}
		h.GlobalWord(w)
	}
	e := heap.NewEvacuator(h, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SetFrom(nursery)
		e.Begin(target)
		e.Run()
		nursery.Reset()
		nursery, target = target, nursery
	}
	if e.ObjectsCopied != pairs {
		b.Fatalf("the last collection copied %d pairs of %d", e.ObjectsCopied, pairs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/collection")
}

// BenchmarkFullCollect measures one explicit collection of each collector
// at gc-stress's shape: a spine vector of 256 lists of 512 pairs (393 Ki live
// words) on a heap of three times that, sized as the benchmark harness sizes
// its fixed-heap grids (g = 0.25, 16 steps, a 1/8 nursery, three multigen
// generations). An op is one of the workload's rounds — a fresh list stored
// into the spine through the barrier, 32 scratch vectors of 127 words — and
// the collection that ends it, so ns/op is per collection, and ns/word is
// per word marked or copied.
func BenchmarkFullCollect(b *testing.B) {
	const spine, list, scratch, vector = 256, 512, 32, 127
	const total, g, k = 3 * spine * list * 3, 0.25, 16
	nursery := total / 8
	collectors := []struct {
		name string
		mk   func(h *heap.Heap) heap.Collector
	}{
		{"semispace", func(h *heap.Heap) heap.Collector { return semispace.New(h, total) }},
		{"marksweep", func(h *heap.Heap) heap.Collector { return marksweep.New(h, total) }},
		{"generational", func(h *heap.Heap) heap.Collector { return generational.New(h, nursery, total-nursery) }},
		{"nonpredictive", func(h *heap.Heap) heap.Collector {
			return core.New(h, k, total/k, core.WithPolicy(core.FractionJ(g)))
		}},
		{"hybrid", func(h *heap.Heap) heap.Collector {
			hk := min(k, 2*(total-nursery)/nursery) // a step holds at least half a nursery
			return hybrid.New(h, nursery, hk, (total-nursery)/hk, hybrid.WithPolicy(core.FractionJ(g)))
		}},
		{"multigen", func(h *heap.Heap) heap.Collector {
			return multigen.New(h, []int{total >> 3, total >> 2, total - total>>3 - total>>2})
		}},
		{"npms", func(h *heap.Heap) heap.Collector { return npms.New(h, k, total/k, npms.WithG(g)) }},
	}
	for _, nc := range collectors {
		b.Run(nc.name, func(b *testing.B) {
			h := heap.New(heap.WithConfig(heap.Config{}))
			c := nc.mk(h)
			root := h.Scope()
			defer root.Close()
			sp := h.Global(h.MakeVector(spine, h.Null()))
			buildList := func() heap.Ref {
				s := h.Scope()
				l := h.Null()
				for i := 0; i < list; i++ {
					l = h.Cons(h.Fix(int64(i)), l)
				}
				return s.Return(l)
			}
			for i := 0; i < spine; i++ {
				s := h.Scope()
				h.VectorSet(sp, i, buildList())
				s.Close()
			}
			c.Collect() // settle the graph where the collector keeps old data
			rng := rand.New(rand.NewSource(1))
			gc0 := *c.GCStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := h.Scope()
				h.VectorSet(sp, rng.Intn(spine), buildList())
				for j := 0; j < scratch; j++ {
					h.MakeVector(vector, h.Null())
				}
				s.Close()
				c.Collect()
			}
			gc1 := c.GCStats()
			traced := (gc1.WordsCopied - gc0.WordsCopied) + (gc1.WordsMarked - gc0.WordsMarked)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(traced), "ns/word")
		})
	}
}

// BenchmarkMarkSweepAllocFragmented measures mark/sweep's first-fit search
// where it is hardest: a thousand blocks swept to leave only two-word holes
// — free lists non-empty, nothing a 3-to-8-word request can use — ahead of
// the free tail the requests are served from. Each collection (one per tail's
// worth of garbage) refills the lists and restarts the search.
func BenchmarkMarkSweepAllocFragmented(b *testing.B) {
	const fragmented, tail = 1000, 1000 // blocks
	h := heap.New()
	c := marksweep.New(h, (fragmented+tail)*heap.BlockWords)
	gctest.FragmentBlocks(h, fragmented)
	c.Collect()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AllocRaw(heap.TVector, 2+i%6)
	}
}

// BenchmarkNPMSAlloc measures the non-predictive mark/sweep collector's
// allocation path (descending steps, one free list per step) on garbage
// pairs, collections included.
func BenchmarkNPMSAlloc(b *testing.B) {
	h := heap.New()
	c := npms.New(h, 8, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AllocRaw(heap.TPair, 2)
	}
}

// BenchmarkBoyerRewrite measures the term rewriter itself (mutator speed).
func BenchmarkBoyerRewrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := boyer.New(1, true)
		h := heap.New()
		semispace.New(h, 1<<16, semispace.WithExpansion(3))
		if err := p.Run(h); err != nil {
			b.Fatal(err)
		}
	}
}
