package experiments

import (
	"fmt"
	"testing"

	"rdgc/internal/bench"
	"rdgc/internal/bench/dyninfer"
	"rdgc/internal/decay"
	"rdgc/internal/gc/generational"
	"rdgc/internal/heap"
)

// TestAdaptiveTenuringTracksBestFixed holds the acceptance bar DESIGN.md
// "Tenuring & adaptive policy" states for -gcadapt: on the generational
// collector the controller copies within 5% of the best fixed threshold of
// {1, 2, 6, 15} on every workload, and strictly less than wholesale promotion
// where retention genuinely pays. WordsCopied is deterministic, so the
// comparison is exact.
//
// Under decay a bigger threshold only re-copies survivors and wholesale wins.
// The registry cells size the old area at a quarter of the program's heap
// budget (expansion is the safety valve), so major collections are a cost
// promotion has to answer for: nboyer2 and nucleic2 survivors are effectively
// immortal and wholesale wins again; dyninfer at 40 iterations, with the
// nursery sized to one iteration's constraint graph, is the anti-generational
// shape — survivors of one minor die before a second — where any patience
// keeps the old area clean.
func TestAdaptiveTenuringTracksBestFixed(t *testing.T) {
	type workload struct {
		name         string
		nursery, old int
		run          func(h *heap.Heap) error
		retentionWin bool // adaptive must strictly beat threshold 1
	}
	var workloads []workload
	for _, halfLife := range []float64{192, 768} {
		const steps = 200000
		total := DecayConfig{HalfLife: halfLife, L: 3.5, G: 0.25, K: 16, Steps: steps}.HeapWords()
		workloads = append(workloads, workload{
			name: fmt.Sprintf("decay-%g", halfLife), nursery: total / 8, old: total - total/8,
			run: func(h *heap.Heap) error {
				w := decay.NewWorkload(h, halfLife, 1)
				w.Warmup(10)
				w.Run(steps)
				return nil
			},
		})
	}
	for _, p := range bench.Standard() {
		switch {
		case p.Name() == "nucleic2":
			workloads = append(workloads, workload{name: p.Name(), nursery: p.HeapWords() / 16, old: p.HeapWords() / 4, run: p.Run})
		case p.Name() == "nboyer2" && !testing.Short():
			workloads = append(workloads, workload{name: p.Name(), nursery: p.HeapWords() / 32, old: p.HeapWords() / 4, run: p.Run})
		}
	}
	d := dyninfer.New(40)
	workloads = append(workloads, workload{name: d.Name(), nursery: 4096, old: 8192, run: d.Run, retentionWin: true})

	for _, w := range workloads {
		copied := func(cfg heap.Config) uint64 {
			h := heap.New(heap.WithConfig(cfg))
			c := generational.New(h, w.nursery, w.old, generational.WithExpansion(2))
			if err := w.run(h); err != nil {
				t.Fatalf("%s under %+v: %v", w.name, cfg, err)
			}
			return c.GCStats().WordsCopied
		}
		wholesale := copied(heap.Config{Tenure: 1})
		best := wholesale
		for _, threshold := range []int{2, 6, 15} {
			best = min(best, copied(heap.Config{Tenure: threshold}))
		}
		adaptive := copied(heap.Config{Adaptive: true})
		if float64(adaptive) > 1.05*float64(best) {
			t.Errorf("%s: adaptive copied %d words, more than 5%% over the best fixed threshold's %d", w.name, adaptive, best)
		}
		if w.retentionWin && adaptive >= wholesale {
			t.Errorf("%s: adaptive copied %d words, not below wholesale promotion's %d", w.name, adaptive, wholesale)
		}
		t.Logf("%s: adaptive %d, best fixed %d (x%.3f), wholesale %d", w.name, adaptive, best, float64(adaptive)/float64(best), wholesale)
	}
}
