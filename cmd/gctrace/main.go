// Command gctrace records benchmark workloads as allocation-event traces
// and replays them under any collector in the repository. A trace captures
// the mutator side of a run — every allocation, store, and root operation —
// so one recording can evaluate every collection policy on the identical
// event stream, the way the paper's trace-driven comparisons do.
//
//	gctrace record [-quick] [-census] [-collector NAME] [-o FILE] WORKLOAD
//	gctrace replay [-collector NAME|all] [-verify] [-shards N] [-parallel N] [-progress] [-gc*] FILE
//	gctrace synth -op OP [-o FILE] [-compress] [-seed N] [-chunk N] [-n N] FILE...
//	gctrace stat FILE...
//	gctrace cat [-n N] FILE
//
// record runs a benchmark from the registry (gcbench's table rows; -quick
// selects the reduced-scale instances) under the named collector and writes
// the trace. Which collector records is immaterial — trace bytes are
// collector-independent — so the flag exists only to vary the recording
// run's collection schedule intent.
//
// replay drives the named collector (default: all seven, as parallel cells)
// from the trace and reports each collector's mutator statistics and gc
// work. -verify additionally runs the deep heap-invariant verifier after
// every collection. Replay fails loudly if the end state does not match the
// trace's recorded statistics. -shards N splits a synthesized multi-session
// corpus by session into N independent replay cells per collector and
// reports per-collector aggregates; the aggregate is identical at any
// -parallel count. The four -gc* flags (heap.ConfigFlags) configure every
// replay heap.
//
// synth composes traces: interleave merges K traces as independent sessions
// of one corpus, and amplify self-interleaves N salted copies of one trace.
// Both operators re-base object and root namespaces so the output replays
// exactly like its inputs.
//
// stat aggregates a trace without replaying it: event and allocation
// profiles, plus an upper-bound lifetime histogram in allocated words.
// cat prints events one per line for debugging.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"rdgc/internal/bench"
	"rdgc/internal/experiments"
	"rdgc/internal/gc/collectors"
	"rdgc/internal/heap"
	"rdgc/internal/runner"
	"rdgc/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "synth":
		err = cmdSynth(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	case "cat":
		err = cmdCat(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "gctrace: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gctrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  gctrace record [-quick] [-census] [-collector NAME] [-o FILE] WORKLOAD
  gctrace replay [-collector NAME|all] [-verify] [-shards N] [-parallel N] [-progress] FILE
  gctrace synth -op interleave|amplify [-o FILE] [-compress] [-seed N] [-chunk N] [-n N] FILE...
  gctrace stat FILE...
  gctrace cat [-n N] FILE

Workloads are the gcbench registry names (run "gcbench -table2" for the
inventory); -quick selects the reduced-scale instances. Collector names:
%s.
`, strings.Join(collectors.Names(), ", "))
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("gctrace record", flag.ExitOnError)
	quick := fs.Bool("quick", false, "use the reduced-scale benchmark instances")
	census := fs.Bool("census", false, "record with per-object birth stamps (replay heaps must match)")
	collector := fs.String("collector", "semispace", "collector driving the recording run")
	out := fs.String("o", "", "output file (default WORKLOAD.trace)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("record needs exactly one workload name")
	}
	p, err := bench.ByName(fs.Arg(0), *quick)
	if err != nil {
		return err
	}
	nc, err := collectors.Pick(collectors.Grid(p.HeapWords()), *collector)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = p.Name() + ".trace"
	}
	var opts []heap.Option
	if *census {
		opts = append(opts, heap.WithCensus())
	}
	stats, err := experiments.RecordBenchTrace(path, p, nc, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("%s: recorded %s under %s: %d words, %d objects\n",
		path, p.Name(), nc.Name, stats.WordsAllocated, stats.ObjectsAllocated)
	return nil
}

// openTraces opens each path as a fresh reader (readers are consumed by
// the synthesis operators, so each call opens its own file handles).
func openTraces(paths []string) ([]*trace.Reader, func(), error) {
	var files []*os.File
	closeAll := func() {
		for _, f := range files {
			f.Close()
		}
	}
	rds := make([]*trace.Reader, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		files = append(files, f)
		if rds[i], err = trace.NewReader(f); err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return rds, closeAll, nil
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("gctrace synth", flag.ExitOnError)
	op := fs.String("op", "", "composition operator: interleave or amplify")
	out := fs.String("o", "synth.trace", "output trace file")
	compress := fs.Bool("compress", false, "write the output with per-block compression")
	seed := fs.Uint64("seed", 0, "seeded pseudo-random interleave schedule (0 = strict round-robin)")
	chunk := fs.Int("chunk", 0, "minimum events per scheduling turn (0 = default)")
	n := fs.Int("n", 0, "amplify: number of salted copies to self-interleave")
	fs.Parse(args)
	opt := trace.SynthOptions{Compress: *compress, Seed: *seed, Chunk: *chunk}

	// Everything that can refuse the command is checked, and the inputs
	// opened, before -o is created: a refused command leaves an existing
	// output as it was.
	var synth func(io.Writer) (trace.Trailer, error)
	switch *op {
	case "interleave":
		if fs.NArg() < 1 {
			return fmt.Errorf("interleave needs at least one input trace")
		}
		rds, closeAll, err := openTraces(fs.Args())
		if err != nil {
			return err
		}
		defer closeAll()
		synth = func(w io.Writer) (trace.Trailer, error) { return trace.Interleave(w, rds, opt) }
	case "amplify":
		if fs.NArg() != 1 {
			return fmt.Errorf("amplify needs exactly one input trace")
		}
		if *n < 1 {
			return fmt.Errorf("amplify needs -n >= 1")
		}
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		synth = func(w io.Writer) (trace.Trailer, error) { return trace.Amplify(w, data, *n, opt) }
	case "":
		return fmt.Errorf("synth needs -op (interleave or amplify)")
	default:
		return fmt.Errorf("unknown synth op %q", *op)
	}
	if outInfo, err := os.Stat(*out); err == nil {
		for _, path := range fs.Args() {
			if inInfo, err := os.Stat(path); err == nil && os.SameFile(outInfo, inInfo) {
				return fmt.Errorf("-o %s names input %s", *out, path)
			}
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	tr, err := synth(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(*out) // a partial trace is no trace; the error is what to report
		return err
	}
	fmt.Printf("%s: %s of %d input(s): %d events, %d words, %d objects\n",
		*out, *op, fs.NArg(), tr.Events, tr.WordsAllocated, tr.ObjectsAllocated)
	return nil
}

// replayCell is one (trace, collector) replay outcome.
type replayCell struct {
	res trace.ReplayResult
	gc  heap.GCStats
}

// replayOne opens the trace fresh and drives one collector from it.
func replayOne(path string, nc collectors.Named, gc heap.Config, verify bool) (replayCell, error) {
	f, err := os.Open(path)
	if err != nil {
		return replayCell{}, err
	}
	defer f.Close()
	return replayReader(f, nc, gc, verify, nil)
}

// replayReader drives one collector from a trace stream on a fresh heap
// under gc, built on the recycler share hands it (nil: none), and releases
// the heap into that recycler once its row is read, if a later cell can
// still take the arenas.
func replayReader(r io.Reader, nc collectors.Named, gc heap.Config, verify bool, share *arenaShare) (replayCell, error) {
	rd, err := trace.NewReader(r)
	if err != nil {
		return replayCell{}, err
	}
	opts := []heap.Option{heap.WithConfig(gc), heap.WithArenas(share.take())}
	if rd.Header().Census {
		opts = append(opts, heap.WithCensus())
	}
	h := heap.New(opts...)
	defer func() {
		if share.handOn() {
			h.Release()
		}
	}()
	c := nc.New(h)
	res, err := trace.Replay(rd, h, c, trace.ReplayOptions{Verify: verify})
	return replayCell{res: res, gc: *c.GCStats()}, err
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("gctrace replay", flag.ExitOnError)
	collector := fs.String("collector", "all", "replay under one named collector, or all seven")
	verify := fs.Bool("verify", false, "run the deep heap-invariant verifier after every collection")
	shards := fs.Int("shards", 0, "split a multi-session corpus into N per-collector replay cells (session s -> shard s mod N)")
	runOpts := runner.Flags(fs)
	gcConfig := heap.ConfigFlags(fs)
	fs.Parse(args)
	gc, opts := gcConfig(), runOpts()
	if fs.NArg() != 1 {
		return fmt.Errorf("replay needs exactly one trace file")
	}
	path := fs.Arg(0)

	// The header sizes the grid; a sharded replay splits the rest of rd.
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	hdr := rd.Header()

	grid := collectors.ForTrace(hdr)
	if *collector != "all" {
		nc, err := collectors.Pick(grid, *collector)
		if err != nil {
			return err
		}
		grid = []collectors.Named{nc}
	}

	workload, _ := hdr.Lookup("workload")
	fmt.Printf("%s: workload %q, census=%v, %d collectors\n", path, workload, hdr.Census, len(grid))

	if *shards > 1 {
		return replaySharded(rd, grid, *shards, gc, *verify, opts)
	}

	specs := make([]runner.Spec[replayCell], len(grid))
	for i, nc := range grid {
		nc := nc
		specs[i] = runner.Spec[replayCell]{
			Name: nc.Name,
			Run:  func() (replayCell, error) { return replayOne(path, nc, gc, *verify) },
			Words: func(v replayCell) uint64 {
				return v.res.Stats.WordsAllocated + v.gc.WordsCopied + v.gc.WordsMarked
			},
		}
	}
	results := runner.Run(specs, opts)

	exit := error(nil)
	for _, r := range results {
		if r.Err != nil {
			fmt.Printf("  %-14s FAIL: %v\n", r.Name, r.Err)
			if exit == nil {
				exit = fmt.Errorf("replay under %s failed", r.Name)
			}
			continue
		}
		v := r.Value
		fmt.Printf("  %-14s ok  %9d events  %10d words  %4d collections  gc work %10d  peak live %8d\n",
			r.Name, v.res.Events, v.res.Stats.WordsAllocated,
			v.gc.Collections, v.gc.WordsCopied+v.gc.WordsMarked, v.gc.PeakLive)
	}
	return exit
}

// replaySharded splits the multi-session corpus rd reads by session into n
// shard traces, replays every (collector, shard) pair as an independent runner
// cell with its own proportionally sized heap, and reports per-collector
// aggregates. Shard contents and the summed statistics depend only on the
// corpus and n — never on -parallel or completion order.
func replaySharded(rd *trace.Reader, grid []collectors.Named, n int, gc heap.Config, verify bool, ropt runner.Options) error {
	shards, err := trace.Shard(rd, n, trace.SynthOptions{})
	if err != nil {
		return err
	}

	specs := make([]runner.Spec[replayCell], 0, len(grid)*n)
	for _, nc := range grid {
		name := nc.Name
		share := &arenaShare{waiting: n}
		for j, raw := range shards {
			raw := raw
			// Size each shard cell from its own header: Shard scaled
			// heap_words down by n, so cells stay proportionate.
			specs = append(specs, runner.Spec[replayCell]{
				Name: fmt.Sprintf("%s/shard%d", name, j),
				Run: func() (replayCell, error) {
					srd, err := trace.NewReader(bytes.NewReader(raw))
					if err != nil {
						return replayCell{}, err
					}
					snc, err := collectors.Pick(collectors.ForTrace(srd.Header()), name)
					if err != nil {
						return replayCell{}, err
					}
					return replayReader(bytes.NewReader(raw), snc, gc, verify, share)
				},
				Words: func(v replayCell) uint64 {
					return v.res.Stats.WordsAllocated + v.gc.WordsCopied + v.gc.WordsMarked
				},
			})
		}
	}
	results := runner.Run(specs, ropt)

	fmt.Printf("  sharded replay: %d shards per collector\n", n)
	exit := error(nil)
	for i, nc := range grid {
		var cell replayCell
		var peak int
		failed := false
		for j := 0; j < n; j++ {
			r := results[i*n+j]
			if r.Err != nil {
				fmt.Printf("  %-14s FAIL (%s): %v\n", nc.Name, r.Name, r.Err)
				if exit == nil {
					exit = fmt.Errorf("replay under %s failed", r.Name)
				}
				failed = true
				break
			}
			v := r.Value
			cell.res.Events += v.res.Events
			cell.res.Stats.WordsAllocated += v.res.Stats.WordsAllocated
			cell.res.Stats.ObjectsAllocated += v.res.Stats.ObjectsAllocated
			cell.gc.Collections += v.gc.Collections
			cell.gc.WordsCopied += v.gc.WordsCopied
			cell.gc.WordsMarked += v.gc.WordsMarked
			if v.gc.PeakLive > peak {
				peak = v.gc.PeakLive
			}
		}
		if failed {
			continue
		}
		fmt.Printf("  %-14s ok  %9d events  %10d words  %4d collections  gc work %10d  peak live %8d\n",
			nc.Name, cell.res.Events, cell.res.Stats.WordsAllocated,
			cell.gc.Collections, cell.gc.WordsCopied+cell.gc.WordsMarked, peak)
	}
	return exit
}

// arenaShare is the arena recycler the shard cells of one collector share:
// a cell that starts after another has released its heap builds on that
// heap's arenas. A cell hands its arenas on only while a cell of its
// collector is yet to start, and the last cell to start lets the recycler
// go. The next collector's spaces have other lengths, so arenas kept past
// that point would only sit in the free lists, as live memory, while a
// sibling cell still runs.
type arenaShare struct {
	mu      sync.Mutex
	a       *heap.Arenas
	waiting int // cells yet to start
}

// take returns the recycler to a cell that is starting; a nil share has
// none.
func (s *arenaShare) take() *heap.Arenas {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.a
	if a == nil {
		a = new(heap.Arenas)
		s.a = a
	}
	if s.waiting--; s.waiting == 0 {
		s.a = nil
	}
	return a
}

// handOn reports whether a finishing cell's arenas can still reach a cell
// of its collector.
func (s *arenaShare) handOn() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiting > 0
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("gctrace stat", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("stat needs at least one trace file")
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rd, err := trace.NewReader(f)
		if err == nil {
			var s *trace.Summary
			if s, err = trace.Stat(rd); err == nil {
				fmt.Printf("%s:\n%s", path, s.Format())
			}
		}
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

func cmdCat(args []string) error {
	fs := flag.NewFlagSet("gctrace cat", flag.ExitOnError)
	limit := fs.Int("n", 0, "print at most N events (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("cat needs exactly one trace file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	hdr := rd.Header()
	fmt.Printf("census: %v\n", hdr.Census)
	for _, m := range hdr.Meta {
		fmt.Printf("meta:   %s = %s\n", m.Key, m.Value)
	}
	var ev trace.Event
	for i := 0; ; i++ {
		if *limit > 0 && i >= *limit {
			fmt.Println("...")
			if _, err := rd.Drain(); err != nil {
				return err
			}
			break
		}
		err := rd.Next(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		fmt.Printf("%8d  %s\n", i, ev.String())
	}
	tr := rd.Trailer()
	fmt.Printf("trailer: %d events, %d words, %d objects\n",
		tr.Events, tr.WordsAllocated, tr.ObjectsAllocated)
	return nil
}
