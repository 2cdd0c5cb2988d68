// Package runner schedules independent experiment cells across a pool of
// worker goroutines.
//
// Every experiment in this repository is a grid of cells — one simulated
// heap per (program, collector, parameter) combination — and the simulated
// Heap is single-threaded by design: no locks, no atomics, plain slices.
// The parallelism that is safe, and the parallelism this package provides,
// is *across* cells: each cell builds its own Heap (and its own seeded
// rand.Rand) inside its Run function, so cells share no mutable state.
//
// Determinism: results are reported in submission order regardless of
// completion order, and nothing is printed from worker goroutines (progress
// lines go to an opt-in io.Writer, normally stderr). A driver that formats
// the returned Results sequentially therefore produces byte-identical
// output whether Workers is 1 or GOMAXPROCS.
//
// A panicking cell does not bring the process down: the panic is recovered
// into that cell's Result.Err and the remaining cells keep running.
package runner

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
)

// EnvParallel is the environment variable consulted by DefaultWorkers; the
// drivers' -parallel flags override it.
const EnvParallel = "RDGC_PARALLEL"

// Spec describes one experiment cell. Run must be self-contained: it builds
// its own Heap and rand.Rand and returns the cell's measurement. Words, when
// non-nil, extracts the cell's simulated work (words allocated or traced)
// from the value so the Result can report a words/sec throughput.
type Spec[T any] struct {
	Name  string
	Run   func() (T, error)
	Words func(v T) uint64
}

// Result is one finished cell, in the same position as its Spec.
type Result[T any] struct {
	Name  string
	Index int
	Value T
	Err   error         // Run's error, or a recovered panic
	Wall  time.Duration // the cell's wall-clock time
	Words uint64        // simulated words processed, if the Spec can say
}

// WordsPerSec returns the cell's simulated-words throughput, or 0 when the
// cell did no measurable work.
func (r Result[T]) WordsPerSec() float64 {
	if r.Words == 0 || r.Wall <= 0 {
		return 0
	}
	return float64(r.Words) / r.Wall.Seconds()
}

// Options configures a Run.
type Options struct {
	// Workers is the pool size; values < 1 mean DefaultWorkers().
	Workers int
	// Progress, when non-nil, receives one line per completed cell
	// ("[3/12] name  42ms"). Drivers pass os.Stderr so stdout stays
	// byte-identical across worker counts.
	Progress io.Writer
}

// Flags registers the drivers' two runner flags on fs: -parallel, the pool
// size (0 defers to DefaultWorkers), and -progress, which sends one line per
// finished cell to stderr. The returned function yields the parsed Options;
// call it after fs.Parse.
func Flags(fs *flag.FlagSet) func() Options {
	workers := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS, or $"+EnvParallel+")")
	progress := fs.Bool("progress", false, "report per-cell completion and wall-clock to stderr")
	return func() Options {
		o := Options{Workers: *workers}
		if *progress {
			o.Progress = os.Stderr
		}
		return o
	}
}

// DefaultWorkers returns GOMAXPROCS, overridden by the RDGC_PARALLEL
// environment variable when it holds a positive integer.
func DefaultWorkers() int {
	if s := os.Getenv(EnvParallel); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes every spec on a pool of opts.Workers goroutines and returns
// the results indexed exactly like specs. It only returns once every cell
// has finished.
func Run[T any](specs []Spec[T], opts Options) []Result[T] {
	workers := opts.Workers
	if workers < 1 {
		workers = DefaultWorkers()
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]Result[T], len(specs))
	if len(specs) == 0 {
		return results
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards done counter and Progress writes
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// The cell label is inherited by any goroutines the cell
				// spawns, so profiles attribute every sample to its
				// experiment cell.
				pprof.Do(context.Background(), pprof.Labels("cell", specs[i].Name), func(context.Context) {
					results[i] = runCell(specs[i], i)
				})
				if opts.Progress != nil {
					mu.Lock()
					done++
					fmt.Fprintf(opts.Progress, "[%d/%d] %-40s %8.0fms\n",
						done, len(specs), specs[i].Name,
						float64(results[i].Wall.Microseconds())/1000)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// runCell runs one spec, converting a panic into the cell's error so a bad
// configuration (heap overflow, invalid parameters) fails one cell instead
// of the whole grid.
func runCell[T any](spec Spec[T], index int) (res Result[T]) {
	res.Name = spec.Name
	res.Index = index
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("cell %q panicked: %v", spec.Name, p)
		}
		if res.Err == nil && spec.Words != nil {
			res.Words = spec.Words(res.Value)
		}
	}()
	res.Value, res.Err = spec.Run()
	return res
}
