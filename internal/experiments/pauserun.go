package experiments

import (
	"rdgc/internal/bench"
	"rdgc/internal/gc/collectors"
	"rdgc/internal/gc/npms"
	"rdgc/internal/heap"
)

// pauseNPMS is npms in the pause run: it cannot grow, so 16 steps of an
// eighth of the program's heap, a 2x margin against fragmentation, where
// the table gives it 8 steps of the whole heap.
func pauseNPMS(h *heap.Heap, total int) heap.Collector { return npms.New(h, 16, total/8) }

// RunBenchPausesLogged runs one registry benchmark on the collector of e —
// one of the table's incremental entries — sized to the program's heap, on
// a heap under cfg, handing log every mutator-visible pause — in words of
// collector work: whole collections in stop-the-world mode; root scans,
// mark slices, lazy sweeps and termination in incremental mode — in order,
// as it is recorded. It is the stream behind gcbench -pauselog.
func RunBenchPausesLogged(p bench.Program, e collectors.Entry, cfg heap.Config, log func(words uint64)) error {
	h := heap.New(heap.WithConfig(cfg))
	h.SetPauseLog(log)
	mk := e.New
	if e.Name == "npms" {
		mk = pauseNPMS
	}
	return bench.Measure(p, h, mk(h, p.HeapWords())).Err
}
