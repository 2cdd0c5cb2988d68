// Command benchmark is rdgc's one benchmark: six named workloads, the
// end-to-end metrics a user of the drivers waits for, and a traced run that
// attributes each cell's wall to the layers under it. BENCHMARK.json at the
// repository root is its contract; README.md defines every metric.
//
// The driver's form runs one workload in one process and prints one JSON
// result as the last line of standard output (run.sh builds into the
// checkout's .bench_build/ first; `go run -C benchmark .` works as well):
//
//	bash benchmark/run.sh --workload decay-grid --seed 1 --seconds 15 --trace 0
//
// With no --workload every workload runs in turn, each in a child process so
// that peak memory and Go-runtime state are per workload. --selfcheck runs
// the spread check the driver applies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
)

func main() {
	var o options
	var trace int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long to measure: sets the number of passes (seconds / the workload's nominal pass time)")
	flag.IntVar(&trace, "trace", 0, "1: run with timing shims and print the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test scale; the numbers are not comparable")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two sets of ten seeds per workload and check spreads and drift against BENCHMARK.json")
	flag.Parse()
	o.trace = trace != 0
	o.log = os.Stdout
	o.spansDir = "out"

	var err error
	switch {
	case selfcheck:
		err = selfCheck(o)
	case o.workload == "":
		err = runAll(o)
	default:
		var res *result
		if res, err = run(o); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// childArgs is the command line that runs one workload of o in a child.
func childArgs(o options, workload string, seed uint64) []string {
	args := []string{
		"--workload", workload,
		"--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(o.seconds),
		"--trace", map[bool]string{false: "0", true: "1"}[o.trace],
	}
	if o.quick {
		args = append(args, "--quick")
	}
	return args
}

// runAll runs every workload in its own child process, passing its output
// through.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		cmd := exec.Command(self, childArgs(o, w.name, o.seed)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}
