package heap

import (
	"math"
	"math/bits"
)

// PauseHist is a log2-bucketed histogram of mutator-visible pause sizes,
// measured in words of collector work per pause (the repository's clock has
// no wall time, so "pause time" is the work the mutator waited for). Bucket
// 0 holds zero-word pauses; bucket i (1..64) holds pauses whose word count
// has bit length i, i.e. words in [2^(i-1), 2^i).
//
// The struct is all fixed-size values, so GCStats — which embeds one —
// remains comparable with ==, which the conformance suite relies on to pin
// collector statistics bit-identical across engine configurations. The
// record path does no allocation and no division, so it is cheap enough to
// sit on every pause, including the sub-block pauses of incremental mode.
type PauseHist struct {
	Count      uint64     `json:"Count"`
	TotalWords uint64     `json:"TotalWords"`
	MaxWords   uint64     `json:"MaxWords"`
	Buckets    [65]uint64 `json:"Buckets"`
}

// Record adds one pause of the given size.
func (p *PauseHist) Record(words uint64) {
	p.Count++
	p.TotalWords += words
	if words > p.MaxWords {
		p.MaxWords = words
	}
	p.Buckets[bits.Len64(words)]++
}

// Reset zeroes the histogram.
func (p *PauseHist) Reset() { *p = PauseHist{} }

// Merge accumulates o into p.
func (p *PauseHist) Merge(o *PauseHist) {
	p.Count += o.Count
	p.TotalWords += o.TotalWords
	if o.MaxWords > p.MaxWords {
		p.MaxWords = o.MaxWords
	}
	for i := range p.Buckets {
		p.Buckets[i] += o.Buckets[i]
	}
}

// Quantile returns an upper bound on the q-quantile pause (nearest-rank
// convention): the bound of the bucket holding the rank-⌈q·Count⌉ pause,
// clamped to MaxWords. The true quantile v satisfies v <= Quantile(q) < 2v
// (exact for v == 0), which is the resolution log2 bucketing buys.
func (p *PauseHist) Quantile(q float64) uint64 {
	if p.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(p.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > p.Count {
		rank = p.Count
	}
	var cum uint64
	for i, n := range p.Buckets {
		cum += n
		if cum >= rank {
			if i == 0 {
				return 0
			}
			ub := uint64(1)<<uint(i) - 1
			if ub > p.MaxWords {
				ub = p.MaxWords
			}
			return ub
		}
	}
	return p.MaxWords
}

// P50 returns the median pause bound.
func (p *PauseHist) P50() uint64 { return p.Quantile(0.50) }

// P99 returns the 99th-percentile pause bound.
func (p *PauseHist) P99() uint64 { return p.Quantile(0.99) }

// P999 returns the 99.9th-percentile pause bound — the headline tail
// quantile of the server simulation's request-latency histograms, which
// reuse PauseHist for its comparability and zero-alloc record path.
func (p *PauseHist) P999() uint64 { return p.Quantile(0.999) }
