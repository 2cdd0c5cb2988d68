package experiments

import (
	"fmt"
	"os"
	"strconv"

	"rdgc/internal/bench"
	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// RecordBenchTrace records one benchmark program into path as an
// allocation-event trace, driven by the given collector (which one is
// immaterial: trace bytes are collector-independent). The header metadata
// carries the workload name and its comfortable heap size, which is all
// gctrace replay needs to reconstruct a sized collector grid. The heap is
// built with opts (heap.WithCensus makes a census trace). On any error the
// partial file is removed.
func RecordBenchTrace(path string, p bench.Program, nc gcfuzz.NamedCollector, opts ...heap.Option) (heap.Stats, error) {
	f, err := os.Create(path)
	if err != nil {
		return heap.Stats{}, err
	}
	meta := []trace.MetaEntry{
		{Key: "workload", Value: p.Name()},
		{Key: "heap_words", Value: strconv.Itoa(p.HeapWords())},
		{Key: "sizing", Value: "heapwords"},
		{Key: "collector", Value: nc.Name},
	}
	stats, err := trace.Record(f, meta, nc.New,
		func(h *heap.Heap, c heap.Collector) error {
			if err := p.Run(h); err != nil {
				return err
			}
			c.Collect() // end the trace on a collected heap, like the Table 3 cells
			return nil
		}, opts...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return stats, fmt.Errorf("recording %s: %w", p.Name(), err)
	}
	return stats, nil
}
