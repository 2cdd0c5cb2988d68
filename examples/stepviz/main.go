// Stepviz: a time-lapse of the non-predictive collector's step structure
// under the radioactive decay workload. Each output row is a moment in
// allocation time; each column is a step (step 1, the youngest, on the
// left); the glyph shows how full the step is. Watch the fill front sweep
// from right to left, collections compact the survivors, and the renaming
// rotate the uncollected young steps to the old end — Table 1, live.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"rdgc/internal/core"
	"rdgc/internal/decay"
	"rdgc/internal/experiments"
	"rdgc/internal/heap"
)

// usage reports a bad flag value the way the flag package reports a bad
// flag: the reason and the flag table on stderr, exit status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stepviz: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	halfLife := flag.Float64("h", 512, "half-life in objects")
	l := flag.Float64("L", 3.5, "inverse load factor")
	k := flag.Int("k", 12, "step count")
	frames := flag.Int("frames", 40, "snapshots to print")
	flag.Parse()
	// The flag package parses "NaN", "0" and "-3" happily; the heap sizing
	// and core.New panic on them.
	switch {
	case !decay.ValidHalfLife(*halfLife):
		usage("-h %g: the half-life must be finite and positive", *halfLife)
	case !(*l > 1) || math.IsInf(*l, 1):
		usage("-L %g: the inverse load factor must be finite and above 1", *l)
	case *k < 2:
		usage("-k %d: the collector needs at least 2 steps", *k)
	}

	cfg := experiments.DecayConfig{HalfLife: *halfLife, L: *l}
	h := heap.New()
	stepWords := cfg.HeapWords() / *k
	c := core.New(h, *k, stepWords)
	w := decay.NewWorkload(h, *halfLife, 1)

	fmt.Printf("k=%d steps of %d words, h=%g, L=%g; glyphs: . empty, ░ <1/3, ▒ <2/3, █ full\n",
		*k, stepWords, *halfLife, *l)
	fmt.Printf("%10s  %-*s  j  collections\n", "objects", *k, "steps 1..k")

	w.Warmup(6)
	perFrame := int(6 * *halfLife / float64(*frames))
	for f := 0; f < *frames; f++ {
		w.Run(perFrame)
		var row strings.Builder
		for p := 0; p < c.Steps().K(); p++ {
			s := c.Steps().Step(p)
			switch ratio := float64(s.Used()) / float64(s.Cap()); {
			case ratio == 0:
				row.WriteRune('.')
			case ratio < 1.0/3:
				row.WriteRune('░')
			case ratio < 2.0/3:
				row.WriteRune('▒')
			default:
				row.WriteRune('█')
			}
		}
		fmt.Printf("%10d  %-*s  %d  %d\n",
			w.Clock(), *k, row.String(), c.J(), c.GCStats().Collections)
	}

	st := c.GCStats()
	fmt.Printf("\nmark/cons %.3f over %d collections (non-generational would be %.3f)\n",
		st.MarkCons(&h.Stats), st.Collections, 1/(*l-1))
}
