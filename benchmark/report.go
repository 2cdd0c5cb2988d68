package main

import (
	"fmt"
	"io"
)

// printCells prints one row per cell: its host wall (each lap at its best over
// the passes) and the simulated counts, then the workload's sim digest. With
// traced passes it adds their wall beside the untraced one.
func printCells(w io.Writer, ps, traced *passStats) {
	fmt.Fprintf(w, "\n%-26s %5s %10s", "cell", "laps", "wall ms")
	if traced != nil {
		fmt.Fprintf(w, " %10s", "traced ms")
	}
	fmt.Fprintf(w, " %12s %12s %8s %12s\n", "alloc words", "traced words", "gcs", "ops")
	for i := range ps.stat {
		st := &ps.stat[i]
		fmt.Fprintf(w, "%-26s %5d %10.2f", ps.cells[i].name, len(st.laps), 1e3*st.best())
		if traced != nil {
			fmt.Fprintf(w, " %10.2f", 1e3*traced.stat[i].best())
		}
		c := &st.first
		fmt.Fprintf(w, " %12d %12d %8d %12d\n", c.AllocWords, c.traced(), c.Collections, c.Ops)
	}
	fmt.Fprintf(w, "wall_s = %.4f (sum of each lap's best of n = %d passes)  set-up %.4fs in %d steps, median pass %.4fs\n",
		ps.wallS(), ps.passes, ps.setup.sum(), len(ps.setup), median(ps.setups))
	if ps.passes < ps.want {
		fmt.Fprintf(w, "STOPPED EARLY: %d of %d passes made before the run overran; the box is slow, and so is this estimate\n", ps.passes, ps.want)
	}
	fmt.Fprintf(w, "sim_digest %s\n\n", ps.simDigest())
}

// printBudget prints, per traced cell, where its span went (see budget): the
// mutator's own time, the allocation fast path, collector pauses, barrier,
// sink and, for replay, decode and the replayer's own time; then the sum of
// those corrected parts beside the untraced wall they estimate, and the ns
// per allocated and per traced word that follow. It returns the summed
// estimate over the summed untraced wall.
func printBudget(w io.Writer, plain, traced *passStats, tr *tracer) float64 {
	passes := float64(traced.passes)
	ms := func(ns float64) float64 { return ns / 1e6 / passes }
	fmt.Fprintf(w, "\nbudget, ms per pass over %d traced passes, %.0f ns per clock read taken out\n", traced.passes, tr.clock)
	fmt.Fprintf(w, "%-26s %8s | %8s %8s %8s %8s %8s %8s %8s | %8s %8s | %8s %9s\n",
		"cell", "traced", "mutator", "alloc", "gc pause", "barrier", "sink", "decode", "apply", "sum", "untraced", "ns/alloc", "ns/traced")
	var estimate, untraced float64
	for i := range traced.cells {
		ct := tr.cells[traced.cells[i].name]
		if ct == nil {
			continue
		}
		b := ct.budget(tr.clock)
		wall := plain.stat[i].best()
		estimate += b.estimate() / 1e9 / passes
		untraced += wall

		c := &traced.stat[i].first
		perAlloc, perTraced := 0.0, 0.0
		if c.AllocWords > 0 {
			perAlloc = 1e9 * wall / float64(c.AllocWords)
		}
		if c.traced() > 0 {
			perTraced = b.pause / passes / float64(c.traced())
		}
		fmt.Fprintf(w, "%-26s %8.2f | %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f | %8.2f %8.2f | %8.1f %9.1f\n",
			traced.cells[i].name, ms(b.span), ms(b.mutator), ms(b.alloc), ms(b.pause), ms(b.barrier),
			ms(b.sink), ms(b.decode), ms(b.apply), ms(b.estimate()), 1e3*wall, perAlloc, perTraced)
	}
	fmt.Fprintf(w, "ns/alloc = untraced wall per allocated word; ns/traced = gc pause per copied+marked word\n")
	fmt.Fprintf(w, "trace_overhead_ratio %.3f (traced / untraced wall); parts sum to %.3f of the untraced wall\n",
		traced.wallS()/plain.wallS(), estimate/untraced)
	return estimate / untraced
}
