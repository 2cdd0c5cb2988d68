package main

import "time"

// Laps. The reference box slows the repository's kind of code in bursts of
// milliseconds, and how often they come shifts from one half hour to the
// next: a 100 ms cell then never meets a quiet moment in 15 s of passes, a
// 3 ms stretch of it nearly always does. Taking the best of whole cells,
// three self-checks drifted 10-27% between their two sets; a 9 ms kernel
// sampled beside the cells drifted 1-3%.
//
// So a cell's timed section is cut into laps at points the simulation reaches
// identically on every pass (every 10 k decay steps, every collection of a
// table3 program, every stress round, every trace block read or written), and
// a cell's wall is the sum over its laps of each lap's fastest pass: what the
// cell takes when nothing interferes. Set-up time is cut the same way, into
// the build's steps and each cell's own set-up.
//
// No single pass took that time, and a best-of falls as the passes rise. So
// the number of passes is fixed per workload (workload.passes) and does not
// depend on how fast the code under test is: two commits are compared over
// the same n. The estimate also moves a little with the number of laps, so a
// change that adds collections or trace blocks shifts it by more than its
// work alone.

// lapSteps is how many decay steps make a lap: 2-3 ms.
const lapSteps = 10000

// lapTimer times the laps of one timed section.
type lapTimer struct {
	last time.Time
	laps []float64 // seconds
}

// lap ends the lap in progress and starts the next.
func (l *lapTimer) lap() {
	now := time.Now()
	l.laps = append(l.laps, now.Sub(l.last).Seconds())
	l.last = now
}

// timeLaps times build-time steps: each call of the returned function ends a
// step and appends its seconds to *laps.
func timeLaps(laps *[]float64) func() {
	l := lapTimer{last: time.Now()}
	return func() {
		l.lap()
		*laps = l.laps
	}
}

// lapBest keeps, lap by lap, the fastest time over the passes.
type lapBest []float64

// add folds one pass in. It reports false, and leaves the pass out, if the
// pass cut another number of laps than the first: the laps do not line up.
func (b *lapBest) add(laps []float64) bool {
	if *b == nil {
		*b = append(lapBest(nil), laps...)
		return true
	}
	if len(laps) != len(*b) {
		return false
	}
	for i, v := range laps {
		(*b)[i] = min((*b)[i], v)
	}
	return true
}

// sum is the section's time with every lap at its best.
func (b lapBest) sum() float64 { return sum(b) }

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
