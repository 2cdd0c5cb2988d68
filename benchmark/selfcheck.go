package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
)

// contract is the part of BENCHMARK.json the self-check reads.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// contractPath is BENCHMARK.json as seen from the benchmark's directory,
// which is where run.sh, `go run -C benchmark .` and `go test` all run.
const contractPath = "../BENCHMARK.json"

func readContract() (*contract, error) {
	data, err := os.ReadFile(contractPath)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", contractPath, err)
	}
	return &c, nil
}

// quartiles are Python's statistics.quantiles(v, n=4) (the exclusive method),
// which is what the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// runChild runs one workload in a child process and parses its last line.
func runChild(self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}

// selfCheckRuns is how many seeds make a set: the driver's ten.
const selfCheckRuns = 10

// selfCheck is the driver's acceptance test run by hand: two sets of runs,
// each selfCheckRuns seeds on every workload, interleaved round-robin across
// workloads. For every end-to-end metric it prints each set's median,
// quartiles and spread (interquartile distance over the median) and fails if
// a spread other than setup_s's exceeds the metric's bound, if the second
// set's median is worse than the first's by more than the bound, or if any
// run failed a check. A spread above a third of the bound is flagged: the
// benchmark aims below that.
func selfCheck(o options) error {
	const runs = selfCheckRuns
	c, err := readContract()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	bad := 0
	for set := 0; set < 2; set++ {
		for r := 0; r < runs; r++ {
			seed := o.seed + uint64(set*runs+r)
			for _, w := range workloads {
				res, err := runChild(self, childArgs(o, w.name, seed))
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if !res.Correct {
					bad++
					fmt.Printf("FAILED: %s seed %d: %d of %d checks failed\n", w.name, seed, res.Failed, res.Attempted)
				}
				for name, v := range res.Metrics {
					k := key{w.name, name}
					values[set][k] = append(values[set][k], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d/%d %s done\n", set+1, r+1, runs, w.name)
			}
		}
	}

	fmt.Printf("\nself-check: 2 sets x %d seeds, %gs per run\n", runs, o.seconds)
	fmt.Printf("%-14s %-20s %6s | %12s %12s %12s %7s | %12s %7s | %7s  %s\n",
		"workload", "metric", "bound", "median 1", "q1", "q3", "spread", "median 2", "spread", "drift", "verdict")
	for _, w := range workloads {
		for _, e := range c.EndToEnd {
			k := key{w.name, e.Name}
			var med, spread [2]float64
			var q [2][3]float64
			for set := 0; set < 2; set++ {
				q1, q2, q3 := quartiles(values[set][k])
				q[set] = [3]float64{q1, q2, q3}
				med[set], spread[set] = q2, (q3-q1)/q2
			}
			drift := (med[1] - med[0]) / med[0] // positive = worse
			if e.Better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			switch {
			case drift > e.Bound:
				verdict, bad = "DRIFT", bad+1
			case e.Name != "setup_s" && max(spread[0], spread[1]) > e.Bound:
				verdict, bad = "SPREAD", bad+1
			case e.Name != "setup_s" && max(spread[0], spread[1]) > e.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("%-14s %-20s %6.3f | %12.6g %12.6g %12.6g %6.2f%% | %12.6g %6.2f%% | %+6.2f%%  %s\n",
				w.name, e.Name, e.Bound, med[0], q[0][0], q[0][2], 100*spread[0], med[1], 100*spread[1], 100*drift, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check failed: %d findings", bad)
	}
	fmt.Println("self-check passed")
	return nil
}
