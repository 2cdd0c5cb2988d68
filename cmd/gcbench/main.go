// Command gcbench reproduces Tables 2 and 3 of the paper: the benchmark
// inventory, and the allocation volumes, estimated peaks, and gc/mutator
// overheads of each benchmark under the non-generational stop-and-copy
// collector and the conventional generational collector. With -hybrid it
// additionally measures the Larceny-style hybrid collector (ephemeral
// nursery + non-predictive dynamic area) that Section 8 describes, and with
// -remset it reports remembered-set growth (§8.3).
//
// Benchmark rows are independent cells, so they run on a worker pool
// (-parallel, default GOMAXPROCS); stdout is byte-identical for any worker
// count. -json emits the per-cell measurements as JSON instead of the table.
// -cpuprofile and -memprofile write pprof profiles of the run, so hot-path
// work starts from a measurement.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"rdgc/internal/bench"
	"rdgc/internal/experiments"
	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/gc/hybrid"
	"rdgc/internal/heap"
	"rdgc/internal/runner"
)

// rowResult is one benchmark's cell: the Table 3 row plus the optional
// hybrid measurement.
type rowResult struct {
	row        experiments.Table3Row
	hres       bench.RunResult
	remA, remB int
}

func main() {
	table2 := flag.Bool("table2", false, "print the benchmark inventory and exit")
	quick := flag.Bool("quick", false, "use reduced-scale benchmark instances")
	withHybrid := flag.Bool("hybrid", false, "also measure the hybrid (non-predictive) collector")
	runOpts := runner.Flags(flag.CommandLine)
	gcConfig := heap.ConfigFlags(flag.CommandLine)
	pauselog := flag.String("pauselog", "", "run each benchmark under the incremental-capable collectors and dump every mutator-visible pause as CSV to `file` (- for stdout); honors -gcincr/-gcslice")
	jsonOut := flag.Bool("json", false, "emit per-cell measurements as JSON instead of the table")
	record := flag.String("record", "", "also record each benchmark as an allocation-event trace into `dir` (see cmd/gctrace)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile to `file` before exiting")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench:", err)
			os.Exit(1)
		}
	}
	gc := gcConfig()
	// run holds the early-returning body so the profile teardown below
	// covers every exit path.
	run(*table2, *quick, *withHybrid, gc, runOpts(), *jsonOut, *record)
	if *pauselog != "" {
		if err := dumpPauseLog(*pauselog, *quick, gc); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench:", err)
			os.Exit(1)
		}
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcbench:", err)
			os.Exit(1)
		}
		runtime.GC() // materialize up-to-date allocation stats
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench:", err)
			os.Exit(1)
		}
		f.Close()
	}
}

func run(table2Only, quick, withHybrid bool, gc heap.Config, opts runner.Options, jsonOut bool, recordDir string) {
	if table2Only {
		fmt.Println("Table 2: benchmark inventory (Go reimplementation)")
		for _, i := range bench.Table2() {
			fmt.Printf("  %-10s %5d lines   %s\n", i.Name, i.Lines, i.Description)
		}
		return
	}

	progs := bench.Standard()
	if quick {
		progs = bench.Quick()
	}
	cfg := experiments.DefaultTable3Config()
	cfg.GC = gc

	if recordDir != "" {
		if err := os.MkdirAll(recordDir, 0o777); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench:", err)
			os.Exit(1)
		}
	}

	specs := make([]runner.Spec[rowResult], len(progs))
	for i, p := range progs {
		p := p
		specs[i] = runner.Spec[rowResult]{
			Name: p.Name(),
			Run: func() (rowResult, error) {
				row, err := experiments.RunTable3Row(func() bench.Program { return p }, cfg)
				if err != nil {
					return rowResult{}, err
				}
				rr := rowResult{row: row}
				if withHybrid {
					rr.hres, rr.remA, rr.remB = runHybrid(p, row, gc)
				}
				if recordDir != "" {
					path := filepath.Join(recordDir, p.Name()+".trace")
					nc := gcfuzz.CollectorsSized(p.HeapWords())[0]
					if _, err := experiments.RecordBenchTrace(path, p, nc, heap.WithConfig(gc)); err != nil {
						return rr, err
					}
				}
				return rr, nil
			},
			Words: func(v rowResult) uint64 {
				return v.row.StopAndCopy.WordsAllocated +
					v.row.Generational.WordsAllocated + v.hres.WordsAllocated
			},
		}
	}
	results := runner.Run(specs, opts)

	if jsonOut {
		emitJSON(results, withHybrid)
		return
	}

	fmt.Println("Table 3: storage allocation and garbage collection overheads")
	fmt.Printf("%-10s %12s %12s %12s %8s %8s", "name", "alloc (Mw)", "peak (Kw)", "semi (Kw)", "s&c", "gen")
	if withHybrid {
		fmt.Printf(" %8s %10s", "hybrid", "remsets")
	}
	fmt.Println()

	for _, r := range results {
		if r.Err != nil {
			fmt.Printf("%-10s error: %v\n", r.Name, r.Err)
			continue
		}
		row := r.Value.row
		fmt.Printf("%-10s %12.2f %12.0f %12.0f %7.1f%% %7.1f%%",
			row.Program, float64(row.AllocWords)/1e6, float64(row.PeakWords)/1e3,
			float64(row.SemiWords)/1e3, 100*row.GCRatioSC(), 100*row.GCRatioGen())
		if withHybrid {
			hres := r.Value.hres
			fmt.Printf(" %7.1f%% %5d/%4d", 100*float64(hres.GCWorkWords)/
				(experiments.MutatorCostPerWord*float64(hres.WordsAllocated)),
				r.Value.remA, r.Value.remB)
		}
		fmt.Println()
		if withHybrid && r.Value.hres.Err != nil {
			fmt.Printf("  (hybrid error: %v)\n", r.Value.hres.Err)
		}
	}
}

// jsonCell is one (program, collector) measurement in -json output. WallNS
// and WordsPerSec describe the whole benchmark cell (all its collectors)
// and vary run to run; everything else is deterministic.
type jsonCell struct {
	Program       string  `json:"program"`
	Collector     string  `json:"collector"`
	AllocWords    uint64  `json:"alloc_words"`
	GCWorkWords   uint64  `json:"gc_work_words"`
	MarkCons      float64 `json:"mark_cons"`
	Collections   int     `json:"collections"`
	Pauses        uint64  `json:"pauses"`
	PauseP50Words uint64  `json:"pause_p50_words"`
	PauseP99Words uint64  `json:"pause_p99_words"`
	MaxPause      uint64  `json:"max_pause_words"`
	TotalPause    uint64  `json:"total_pause_words"`
	RemsetPeak    int     `json:"remset_peak"`
	PeakWords     int     `json:"peak_words"`
	SemiWords     int     `json:"semi_words"`
	// FootprintWords is the run's maximum reserved footprint: blocks
	// reserved across every space times heap.BlockWords, counting a
	// to-space or shadow that has not received memory yet.
	FootprintWords int     `json:"footprint_words"`
	WallNS         int64   `json:"wall_ns"`
	WordsPerSec    float64 `json:"words_per_sec"`
	Error          string  `json:"error,omitempty"`
}

func emitJSON(results []runner.Result[rowResult], withHybrid bool) {
	var cells []jsonCell
	for _, r := range results {
		if r.Err != nil {
			cells = append(cells, jsonCell{Program: r.Name, Error: r.Err.Error()})
			continue
		}
		row := r.Value.row
		add := func(res bench.RunResult) {
			c := jsonCell{
				Program:        row.Program,
				Collector:      res.Collector,
				AllocWords:     res.WordsAllocated,
				GCWorkWords:    res.GCWorkWords,
				MarkCons:       res.GCMutatorRatio(),
				Collections:    res.Collections,
				Pauses:         res.Pauses.Count,
				PauseP50Words:  res.Pauses.P50(),
				PauseP99Words:  res.Pauses.P99(),
				MaxPause:       res.Pauses.MaxWords,
				TotalPause:     res.Pauses.TotalWords,
				RemsetPeak:     res.RemsetPeak,
				PeakWords:      row.PeakWords,
				SemiWords:      row.SemiWords,
				FootprintWords: res.FootprintWords,
				WallNS:         r.Wall.Nanoseconds(),
				WordsPerSec:    r.WordsPerSec(),
			}
			if res.Err != nil {
				c.Error = res.Err.Error()
			}
			cells = append(cells, c)
		}
		add(row.StopAndCopy)
		add(row.Generational)
		if withHybrid {
			add(r.Value.hres)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cells); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// dumpPauseLog reruns every benchmark under each incremental-capable
// collector, streaming every mutator-visible pause (in words of collector
// work, in the order recorded) as one CSV row. Runs are sequential — the
// row order is deterministic — and run under gc, so the same file can
// capture a stop-the-world baseline or any slice budget.
func dumpPauseLog(path string, quick bool, gc heap.Config) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, "program,collector,incremental,slice_budget,seq,pause_words")
	progs := bench.Standard()
	if quick {
		progs = bench.Quick()
	}
	for _, p := range progs {
		for _, collector := range []string{"marksweep", "npms"} {
			seq := 0
			err := experiments.RunBenchPausesLogged(p, collector, gc,
				func(words uint64) {
					fmt.Fprintf(w, "%s,%s,%v,%d,%d,%d\n",
						p.Name(), collector, gc.Incremental, gc.SliceBudget, seq, words)
					seq++
				})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", p.Name(), collector, err)
			}
		}
	}
	return w.Flush()
}

// runHybrid measures the hybrid collector, on a heap under gc, sized like
// the generational one. Any benchmark error is left in the result for the
// caller to report.
func runHybrid(p bench.Program, row experiments.Table3Row, gc heap.Config) (bench.RunResult, int, int) {
	h := heap.New(heap.WithConfig(gc))
	nursery := row.SemiWords / 8
	if nursery < 2048 {
		nursery = 2048
	}
	stepWords := row.SemiWords / 8
	if stepWords < nursery/2 {
		stepWords = nursery / 2
	}
	c := hybrid.New(h, nursery, 8, stepWords, hybrid.WithGrowth())
	res := bench.Measure(p, h, c)
	a, b := c.RemsetLens()
	return res, a, b
}
