// Command gcfuzz replays byte programs from the cross-collector fuzzing
// harness outside the test framework: point it at a crasher file the fuzzer
// reported (testdata/fuzz/FuzzCollectors/... or $GOCACHE/fuzz/...) or at raw
// bytes, and it reruns the program against every collector, printing each
// collector's mutator statistics and the first property violation.
//
//	gcfuzz [-census=auto|on|off] [-collector NAME] [-gc*] [-minimize] [-emit-trace FILE] [-compress] FILE...
//
// The four -gc* flags (heap.ConfigFlags) set the configuration the
// statistics table is run under, and the properties are then checked under
// every row of gcfuzz.Modes built from it, as the fuzz target checks them
// from the zero Config: a crasher the fuzzer reports under a mode replays
// with that mode's flags (-gcincr, -gctenure 3, ...).
//
// With -minimize, a failing program is shrunk to a minimal reproducer
// (printed as a go-fuzz corpus file, ready to check in as a regression
// seed). With -emit-trace, the byte program is additionally exported as an
// allocation-event trace (see cmd/gctrace), so a fuzzer-found workload can
// be replayed, profiled, and checked in like any recorded benchmark;
// -compress writes it with per-block compression.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rdgc/internal/gc/collectors"
	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

func main() {
	censusMode := flag.String("census", "auto", "census tracking: auto (derived from the program), on, or off")
	collector := flag.String("collector", "", "run only the named collector (default: all, with cross-collector stats check)")
	gcConfig := heap.ConfigFlags(flag.CommandLine)
	minimize := flag.Bool("minimize", false, "shrink a failing program to a minimal reproducer")
	emitTrace := flag.String("emit-trace", "", "export the (single) program as an allocation-event trace to `file`")
	compress := flag.Bool("compress", false, "write the -emit-trace output with per-block compression")
	flag.Parse()
	gc := gcConfig()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *emitTrace != "" && flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "gcfuzz: -emit-trace takes exactly one program file")
		os.Exit(2)
	}

	exit := 0
	for _, path := range flag.Args() {
		if err := replay(path, gc, *censusMode, *collector, *minimize, *emitTrace, *compress); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// emit records the byte program as an allocation-event trace. The recording
// collector and its configuration are immaterial to the trace bytes — a
// trace names allocation ordinals, never addresses — so the fixed-size fuzz
// grid's first collector drives the run under the flags' configuration like
// every other run here. The trace carries no heap_words metadata, which
// tells gctrace replay to use the same fuzz-sized grid.
func emit(path string, prog []byte, gc heap.Config, census, compress bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := []trace.MetaEntry{
		{Key: "workload", Value: "gcfuzz:" + filepath.Base(path)},
		{Key: "sizing", Value: "gcfuzz"},
	}
	var wopts []trace.WriterOption
	if compress {
		wopts = append(wopts, trace.WithCompression())
	}
	var rec *trace.Recorder
	var wrapErr error
	_, runErr := gcfuzz.Run(prog, gcfuzz.Collectors()[0].New, census, gc,
		func(h *heap.Heap, c heap.Collector) heap.Collector {
			w, err := trace.NewWriter(f, trace.Header{Census: census, Meta: meta}, wopts...)
			if err != nil {
				wrapErr = err
				return c
			}
			rec, err = trace.NewRecorder(h, w)
			if err != nil {
				wrapErr = err
				return c
			}
			return rec.Collector(c)
		})
	err = wrapErr
	if rec != nil && err == nil {
		err = rec.Finish()
	}
	if err == nil {
		err = runErr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("emit-trace: %w", err)
	}
	fmt.Printf("  trace written to %s\n", path)
	return nil
}

func replay(path string, gc heap.Config, censusMode, collector string, minimize bool, emitTrace string, compress bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := gcfuzz.UnmarshalCorpus(data)
	if err != nil {
		return err
	}
	census := false
	switch censusMode {
	case "auto":
		census = len(prog) > 0 && prog[0]&1 == 0
	case "on":
		census = true
	case "off":
	default:
		return fmt.Errorf("bad -census value %q", censusMode)
	}
	fmt.Printf("%s: %d program bytes, census=%v\n", path, len(prog), census)

	if emitTrace != "" {
		if err := emit(emitTrace, prog, gc, census, compress); err != nil {
			return err
		}
	}

	grid := gcfuzz.Collectors()
	if collector != "" {
		nc, err := collectors.Pick(grid, collector)
		if err != nil {
			return err
		}
		grid = []gcfuzz.NamedCollector{nc}
	}

	// run checks p the way the fuzz target does, under every mode: all
	// collectors with the cross-collector statistics check, or the named one.
	run := func(p []byte) error {
		for _, m := range gcfuzz.Modes(gc, p) {
			var err error
			if collector == "" {
				err = gcfuzz.RunAll(p, census, m.Config)
			} else {
				_, err = gcfuzz.Run(p, grid[0].New, census, m.Config, nil)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", m.Name, err)
			}
		}
		return nil
	}

	var firstStats heap.Stats
	for i, nc := range grid {
		stats, err := gcfuzz.Run(prog, nc.New, census, gc, nil)
		status := "ok"
		if err != nil {
			status = err.Error()
		}
		note := ""
		if i == 0 {
			firstStats = stats
		} else if stats != firstStats {
			note = "  <-- stats diverged"
		}
		fmt.Printf("  %-14s %d words, %d objects: %s%s\n",
			nc.Name, stats.WordsAllocated, stats.ObjectsAllocated, status, note)
	}

	err = run(prog)
	if err == nil {
		fmt.Println("  all properties hold")
		return nil
	}
	if minimize {
		min := gcfuzz.Minimize(prog, func(p []byte) bool { return run(p) != nil })
		fmt.Printf("  minimized to %d bytes:\n%s", len(min), gcfuzz.MarshalCorpus(min))
	}
	return err
}
