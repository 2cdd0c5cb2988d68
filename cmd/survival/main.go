// Command survival reproduces the lifetime measurements of Section 7:
// Tables 4-7 (survival rates by age) and Figures 2-4 (live storage versus
// time, striped by age). Figures are emitted as CSV (for plotting) or as a
// terminal skyline with -ascii.
//
// Each experiment is an independent cell on a worker pool (-parallel,
// default GOMAXPROCS); results print in experiment order, so stdout is
// byte-identical for any worker count.
package main

import (
	"flag"
	"fmt"
	"os"

	"rdgc/internal/experiments"
	"rdgc/internal/lifetime"
	"rdgc/internal/runner"
)

// cell is one experiment's output: a survival table or a storage profile.
type cell struct {
	header     string
	rows       []lifetime.SurvivalRow
	epochWords uint64
	profile    lifetime.Profile
	isProfile  bool
}

func main() {
	id := flag.String("id", "all", "experiment: table4..table7, figure2..figure4, or all")
	ascii := flag.Bool("ascii", false, "render figures as a terminal skyline instead of CSV")
	width := flag.Int("width", 72, "skyline width for -ascii")
	runOpts := runner.Flags(flag.CommandLine)
	flag.Parse()

	if *ascii && *width < 1 {
		fmt.Fprintf(os.Stderr, "survival: -width %d: a skyline needs at least one column\n", *width)
		flag.Usage()
		os.Exit(2)
	}

	var specs []runner.Spec[cell]
	for _, e := range experiments.SurvivalExperiments() {
		if *id != "all" && *id != e.ID {
			continue
		}
		e := e
		specs = append(specs, runner.Spec[cell]{
			Name: e.ID,
			Run: func() (cell, error) {
				rows, err := experiments.RunSurvival(e)
				return cell{
					header:     fmt.Sprintf("== %s: %s", e.ID, e.Description),
					rows:       rows,
					epochWords: e.EpochWords,
				}, err
			},
		})
	}
	for _, e := range experiments.ProfileExperiments() {
		if *id != "all" && *id != e.ID {
			continue
		}
		e := e
		specs = append(specs, runner.Spec[cell]{
			Name: e.ID,
			Run: func() (cell, error) {
				p, err := experiments.RunProfile(e)
				return cell{
					header:    fmt.Sprintf("== %s: %s", e.ID, e.Description),
					profile:   p,
					isProfile: true,
				}, err
			},
		})
	}
	if len(specs) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *id)
		os.Exit(2)
	}

	for _, r := range runner.Run(specs, runOpts()) {
		fmt.Println(r.Value.header)
		if r.Err != nil {
			fmt.Fprintln(os.Stderr, r.Err)
			os.Exit(1)
		}
		if r.Value.isProfile {
			var err error
			if *ascii {
				err = r.Value.profile.RenderASCII(os.Stdout, *width)
			} else {
				err = r.Value.profile.WriteCSV(os.Stdout)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			bytesPerEpoch := r.Value.epochWords * 8
			for _, row := range r.Value.rows {
				if row.Live == 0 {
					continue
				}
				lo := uint64(row.AgeLo+1) * bytesPerEpoch
				hi := fmt.Sprintf("%d", uint64(row.AgeHi+1)*bytesPerEpoch)
				if row.AgeHi < 0 {
					hi = "older"
				}
				fmt.Printf("  %9d to %9s bytes old: %3.0f%%\n", lo, hi, 100*row.Rate())
			}
		}
		fmt.Println()
	}
}
