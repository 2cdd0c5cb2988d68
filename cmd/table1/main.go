// Command table1 reproduces Table 1 of the paper: a worked trace of the
// non-predictive collector with k = 7 steps and j = 1 on the deterministic
// halving workload, printing live storage per step at every window boundary
// of the final steady cycle, plus the mark/cons ratio (0.2, against 0.4 for
// a non-generational collector in the same heap).
package main

import (
	"flag"
	"fmt"
	"os"

	"rdgc/internal/experiments"
)

func main() {
	cycles := flag.Int("cycles", 3, "steady cycles to run before reporting")
	flag.Parse()

	if *cycles < 0 {
		fmt.Fprintf(os.Stderr, "table1: -cycles %d: must not be negative\n", *cycles)
		flag.Usage()
		os.Exit(2)
	}

	res := experiments.RunTable1(*cycles)

	fmt.Println("Live storage (objects) in each step; step 1 is youngest.")
	fmt.Printf("%8s", "t")
	for s := 1; s <= 7; s++ {
		fmt.Printf("  step %d", s)
	}
	fmt.Println()
	for i, row := range res.Rows {
		label := fmt.Sprintf("%d", (i)*1024)
		if i == 0 {
			label = "gc"
		}
		fmt.Printf("%8s", label)
		for _, v := range row {
			fmt.Printf("  %6d", v)
		}
		fmt.Println()
	}
	fmt.Printf("\nsteady-state mark/cons: %.4f (paper: 1024/5120 = 0.2)\n", res.MarkCons)
	fmt.Printf("non-generational mark/cons in the same heap: 0.4 (2048/5120)\n")
	fmt.Printf("collections: %d\n", res.Collections)
}
