// Package collectors is the one table of the repository's collectors: each
// one's report name, its constructor from a word budget and the heap.Config
// knobs it honours. The drivers, the fuzz harness and the conformance suite
// read it.
//
// Each collector splits the budget by a rule of its own, growth on where it
// has it, so they do not run at one memory. npms cannot grow and is sized
// four ways, each override named beside its caller: 8 steps of the budget
// here, 8 of 4096 words in Fixed, 8 of 2048/div in the conformance suite and
// 16 of budget/8 in the pause run. ROADMAP.md item 16 chooses one rule that
// runs every collector at the same memory; it goes in this table.
package collectors

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rdgc/internal/core"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/hybrid"
	"rdgc/internal/gc/marksweep"
	"rdgc/internal/gc/multigen"
	"rdgc/internal/gc/npms"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// Knobs is a set of the heap.Config knobs a collector honours.
type Knobs uint8

const (
	// Incremental is Config.Incremental and SliceBudget. No interface says
	// a collector has an incremental mode, so the entry declares it.
	Incremental Knobs = 1 << iota
	// Tenuring is Config.Tenure and Adaptive, declared exactly when the
	// collector implements heap.Tenurer (the conformance suite checks).
	Tenuring
)

// Entry is one collector: New builds it on h for a workload whose
// comfortable heap is total words.
type Entry struct {
	Name  string
	New   func(h *heap.Heap, total int) heap.Collector
	Knobs Knobs
}

// Named is a collector bound to one size: a report name and a constructor.
type Named struct {
	Name string
	New  func(h *heap.Heap) heap.Collector
}

// At binds e to a budget of total words.
func (e Entry) At(total int) Named {
	return Named{e.Name, func(h *heap.Heap) heap.Collector { return e.New(h, total) }}
}

// Honours reports whether e's collector reads every knob of k.
func (e Entry) Honours(k Knobs) bool { return e.Knobs&k == k }

var table = []Entry{
	{"semispace", func(h *heap.Heap, total int) heap.Collector {
		return semispace.New(h, total, semispace.WithExpansion(2))
	}, 0},
	{"marksweep", func(h *heap.Heap, total int) heap.Collector {
		return marksweep.New(h, total, marksweep.WithExpansion(2))
	}, Incremental},
	{"generational", func(h *heap.Heap, total int) heap.Collector {
		nursery := total / 8
		return generational.New(h, nursery, 2*total, generational.WithExpansion(2))
	}, Tenuring},
	{"nonpredictive", func(h *heap.Heap, total int) heap.Collector {
		nursery := total / 8
		return core.New(h, 8, nursery, core.WithGrowth())
	}, 0},
	{"hybrid", func(h *heap.Heap, total int) heap.Collector {
		nursery := total / 8
		return hybrid.New(h, nursery/2, 8, nursery, hybrid.WithGrowth())
	}, Tenuring},
	{"multigen", func(h *heap.Heap, total int) heap.Collector {
		nursery := total / 8
		return multigen.New(h, []int{nursery, 2 * nursery, 2 * total}, multigen.WithExpansion(2))
	}, Tenuring},
	{"npms", func(h *heap.Heap, total int) heap.Collector {
		// npms has no growth option; size its k steps generously.
		return npms.New(h, 8, total)
	}, Incremental},
}

// Honouring returns the entries that honour every knob of k, in table
// order; Honouring(0) is the whole table.
func Honouring(k Knobs) []Entry {
	return slices.DeleteFunc(slices.Clone(table), func(e Entry) bool { return !e.Honours(k) })
}

// Names returns the entries' names, in table order.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}

// Lookup returns the entry named name, or the one error every driver
// reports for a name the table does not have.
func Lookup(name string) (Entry, error) {
	if i := slices.IndexFunc(table, func(e Entry) bool { return e.Name == name }); i >= 0 {
		return table[i], nil
	}
	return Entry{}, fmt.Errorf("unknown collector %q (have %s)", name, strings.Join(Names(), ", "))
}

// Pick returns the collector named name from grid, one of this package's
// grids, which hold every entry.
func Pick(grid []Named, name string) (Named, error) {
	if i := slices.IndexFunc(grid, func(nc Named) bool { return nc.Name == name }); i >= 0 {
		return grid[i], nil
	}
	_, err := Lookup(name)
	return Named{}, err
}

// GridFloor is the smallest budget, in words, Grid builds a collector at:
// a smaller one is raised to it.
const GridFloor = 4096

// Grid returns the table at total words, raised to GridFloor if smaller:
// the collectors gcbench -record, gctrace and gcserve build.
func Grid(total int) []Named {
	grid := make([]Named, len(table))
	for i, e := range table {
		grid[i] = e.At(max(total, GridFloor))
	}
	return grid
}

// Fixed returns the grid the fuzz harness drives, sized so the worst-case
// live data of a gcfuzz program fits every collector: the table at 8192
// words, with npms at 8 steps of 4096 words rather than of 8192.
func Fixed() []Named {
	grid := Grid(8192)
	i := slices.IndexFunc(grid, func(nc Named) bool { return nc.Name == "npms" })
	grid[i].New = func(h *heap.Heap) heap.Collector { return npms.New(h, 8, 4096) }
	return grid
}

// ForTrace returns the grid a trace replays under: Grid at its header's
// heap_words, which gctrace record and synth write, or Fixed for a trace
// without it, as gcfuzz -emit-trace writes.
func ForTrace(hdr trace.Header) []Named {
	s, _ := hdr.Lookup("heap_words")
	if n, err := strconv.Atoi(s); err == nil {
		return Grid(n)
	}
	return Fixed()
}
