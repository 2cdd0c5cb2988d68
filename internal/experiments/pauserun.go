package experiments

import (
	"fmt"

	"rdgc/internal/bench"
	"rdgc/internal/gc/marksweep"
	"rdgc/internal/gc/npms"
	"rdgc/internal/heap"
)

// RunBenchPausesLogged runs one registry benchmark on the named collector —
// "marksweep" or "npms", the two with an incremental mode — on a heap under
// cfg, handing log every mutator-visible pause — in words of collector work:
// whole collections in stop-the-world mode; root scans, mark slices, lazy
// sweeps and termination in incremental mode — in order, as it is
// recorded. It is the stream behind gcbench -pauselog.
func RunBenchPausesLogged(p bench.Program, collector string, cfg heap.Config, log func(words uint64)) error {
	h := heap.New(heap.WithConfig(cfg))
	h.SetPauseLog(log)
	var c heap.Collector
	switch collector {
	case "marksweep":
		c = marksweep.New(h, p.HeapWords(), marksweep.WithExpansion(2))
	case "npms":
		// It cannot grow: 16 steps with a 2x margin against fragmentation.
		c = npms.New(h, 16, p.HeapWords()/8)
	default:
		return fmt.Errorf("pauserun: no incremental-capable collector %q", collector)
	}
	return bench.Measure(p, h, c).Err
}
