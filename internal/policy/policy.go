// Package policy implements the feedback controller behind -gcadapt: it
// adapts a tenuring collector's promotion threshold, effective nursery
// size, and collection trigger online from the per-age-class survival
// statistics the tenured evacuator collects (heap/tenure.go), the same
// quantities the lifetime census derives offline (internal/lifetime).
//
// The model is the copy-cost argument of the paper turned into a control
// law. Write f(a) for the fraction of age-class-a words that survive a
// nursery collection, and F(a) = f(0)·f(1)···f(a-1) for the fraction of
// freshly allocated words still alive at their a-th collection. Under a
// threshold T, every allocated word costs
//
//	C(T) = Σ_{a=1..T} F(a)  +  K·F(T)
//
// copies in expectation: one nursery copy per collection survived up to
// the T-th (which promotes it), plus K — the measured words the old area
// copies per word promoted into it — for everything that reaches age T.
// Under radioactive decay f is age-invariant and below K/(K+1), so C is
// minimized by the largest T: the controller pushes the threshold toward
// "never promote" and the collector degenerates into the non-predictive
// shape the paper favors there. Under bimodal lifetimes (most words die
// before their first collection, the rest are effectively immortal,
// f(a≥1) ≈ 1) every retained round re-copies the immortals for nothing,
// so C is minimized by a small finite T. The controller just brute-forces
// the argmin over T in [1, maxThreshold] each collection — sixteen
// multiply-adds on the steady-state decision path, allocation-free.
package policy

import (
	"math"

	"rdgc/internal/heap"
)

// The controller's parameters.
const (
	// alpha is the EWMA smoothing factor for the survival fractions and the
	// old-copy-cost estimate.
	alpha = 0.3

	// maxThreshold caps the adapted promotion threshold. When the argmin
	// lands on the cap the controller reports heap.TenureNever instead: past
	// the resolved age classes there is no evidence promotion ever pays.
	maxThreshold = heap.TenureAgeClasses

	// oldCopyCost seeds K, the copies a promoted word costs the old area,
	// until majors provide measurements.
	oldCopyCost = 4

	// targetSurvival is the fresh-word survival rate the nursery trigger
	// steers toward: surviving more means the nursery is collected too
	// early (grow the trigger). The trigger only shrinks when survival is
	// negligible — below targetSurvival/16 — because a smaller trigger
	// always adds minor collections, and each one re-pays the copy cost of
	// whatever survives; only when almost nothing does is a shorter pause
	// worth that.
	targetSurvival = 1.0 / 3

	// minSampleWords is the age-class population below which a round
	// teaches the controller nothing about that class.
	minSampleWords = 64

	// hysteresis is the relative copy-cost advantage a candidate threshold
	// needs over the incumbent before the controller switches, so EWMA
	// noise cannot flap the policy.
	hysteresis = 0.05
)

// Config is what New takes. It has no fields: every controller runs on the
// parameters above.
type Config struct{}

// Observation is one nursery collection's survival evidence, in words.
type Observation struct {
	// FreshWords is the age-0 population at risk: nursery words born since
	// the previous minor collection.
	FreshWords uint64
	// SurvByAge counts the words that survived, by pre-collection age
	// class; RetainedByAge the subset kept in the nursery, by
	// post-increment age class (next round's at-risk population for
	// classes >= 1). Both come straight from Evacuator.SurvivorsByAge.
	SurvByAge     [heap.TenureAgeClasses]uint64
	RetainedByAge [heap.TenureAgeClasses]uint64
	// PromotedWords is what the old area received this collection.
	PromotedWords uint64
	// NurseryCap is the physical nursery capacity in words, the ceiling of
	// the adapted trigger.
	NurseryCap int
}

// Decision is the knob setting in force after an observation.
type Decision struct {
	// Threshold is the promotion threshold (heap.TenureNever when the
	// cost argmin wants the cap — no finite threshold pays).
	Threshold int
	// TriggerWords is the effective nursery size: the occupancy at which
	// the next minor collection should fire, within [NurseryCap/4,
	// NurseryCap].
	TriggerWords int
	// Changed reports whether either knob moved this observation.
	Changed bool
}

// Controller is the adaptive tenuring policy. It is deterministic: the
// decision sequence is a pure function of the observation sequence. The
// zero value is not ready; use New.
type Controller struct {
	// f[a] is the survival-fraction EWMA of age class a; seen[a] tracks
	// whether class a ever had a measurable population, because a class
	// the current threshold never lets exist must inherit the estimate of
	// the oldest class that does (fhat).
	f    [heap.TenureAgeClasses]float64
	seen [heap.TenureAgeClasses]bool

	// pop[a] is the class-a population at risk in the next observation:
	// last round's retained survivors. pop[0] is ignored (FreshWords).
	pop [heap.TenureAgeClasses]uint64

	// k is the old-copy-cost EWMA, measured as major-collection copied
	// words per word promoted since the previous major, clamped to
	// [0.5, 16] so one odd major cannot capsize the model.
	k                  float64
	kSeen              bool
	promotedSinceMajor uint64

	threshold   int
	trigger     int
	adaptations int
}

// New creates a controller that starts at wholesale promotion (threshold
// 1) with the trigger at the full nursery — the status quo — and adapts
// from the first observation on.
func New(Config) *Controller {
	return &Controller{threshold: 1, k: oldCopyCost}
}

// Threshold returns the promotion threshold currently in force.
func (c *Controller) Threshold() int { return c.threshold }

// Trigger returns the effective nursery size currently in force, or 0
// before the first observation (meaning: use the full nursery).
func (c *Controller) Trigger() int { return c.trigger }

// Adaptations returns how many knob changes the controller has applied.
func (c *Controller) Adaptations() int { return c.adaptations }

// ObserveMajor feeds the controller one major (old-area) collection: the
// words it copied, against the words promoted into the old area since the
// previous major, refresh the K estimate.
func (c *Controller) ObserveMajor(copiedWords uint64) {
	if c.promotedSinceMajor > 0 {
		sample := float64(copiedWords) / float64(c.promotedSinceMajor)
		if sample < 0.5 {
			sample = 0.5
		}
		if sample > 16 {
			sample = 16
		}
		if !c.kSeen {
			c.k = sample
			c.kSeen = true
		} else {
			c.k = alpha*sample + (1-alpha)*c.k
		}
	}
	c.promotedSinceMajor = 0
}

// Observe feeds the controller one nursery collection and returns the
// decision now in force. The steady-state path performs no allocation.
func (c *Controller) Observe(o Observation) Decision {
	// Update the survival EWMAs against each class's at-risk population.
	for a := 0; a < heap.TenureAgeClasses; a++ {
		at := c.pop[a]
		if a == 0 {
			at = o.FreshWords
		}
		if at < minSampleWords {
			continue
		}
		rate := float64(o.SurvByAge[a]) / float64(at)
		if rate > 1 {
			rate = 1
		}
		if !c.seen[a] {
			c.f[a] = rate
			c.seen[a] = true
		} else {
			c.f[a] = alpha*rate + (1-alpha)*c.f[a]
		}
	}
	c.pop = o.RetainedByAge
	c.promotedSinceMajor += o.PromotedWords

	changed := c.decide(o.NurseryCap)
	return Decision{Threshold: c.threshold, TriggerWords: c.trigger, Changed: changed}
}

// Adapt feeds the controller the tenured nursery collection e just ran and
// returns the promotion threshold and the collection trigger for the next
// one, recording the decision in stats. fresh is the nursery words born
// since the previous minor collection; nursery is the (post-flip) nursery,
// whose capacity caps the trigger and whose retained survivors floor it.
func (c *Controller) Adapt(e *heap.Evacuator, fresh int, nursery *heap.Space, stats *heap.GCStats) (threshold, trigger int) {
	if fresh < 0 {
		fresh = 0
	}
	surv, retained := e.SurvivorsByAge()
	d := c.Observe(Observation{
		FreshWords:    uint64(fresh),
		SurvByAge:     *surv,
		RetainedByAge: *retained,
		PromotedWords: e.WordsPromoted,
		NurseryCap:    nursery.Cap(),
	})
	trigger = d.TriggerWords
	if trigger <= 0 || trigger > nursery.Cap() {
		trigger = nursery.Cap()
	}
	// Never set the trigger below what is already retained plus working
	// headroom, or allocation would collect on every request.
	if floor := nursery.Top + nursery.Cap()/8; trigger < floor {
		trigger = floor
		if trigger > nursery.Cap() {
			trigger = nursery.Cap()
		}
	}
	stats.PolicyAdaptations = c.adaptations
	stats.TenureThreshold = d.Threshold
	return d.Threshold, trigger
}

// fhat estimates class a's survival fraction, falling back to the oldest
// measured class when a has never existed under the thresholds run so far
// (age-invariance is the natural prior: it is exactly the decay model).
func (c *Controller) fhat(a int) float64 {
	for ; a >= 0; a-- {
		if c.seen[a] {
			return c.f[a]
		}
	}
	return 0.5
}

// promotionEpsilon is the predicted fraction of fresh words reaching the
// promotion age below which a finite threshold is pure bookkeeping: when
// fewer than one word in 128 would ever be promoted, the controller snaps
// to TenureNever rather than keep the machinery armed for a trickle.
const promotionEpsilon = 1.0 / 128

// decide recomputes both knobs; it reports whether anything changed.
// nurseryCap <= 0 leaves the trigger untouched. Upward threshold moves
// climb one age class per call, because raising the threshold by k
// conjectures about k age classes the current policy has never let exist —
// each step should earn the next from measurements, and stopping a policy
// that is wasting copies (moving down) must not wait for any such evidence.
func (c *Controller) decide(nurseryCap int) bool {
	changed := false

	// No age class ever measured: hold the status quo. The fallback prior
	// in fhat would otherwise argue for never-promote on zero evidence.
	evidence := false
	for _, s := range c.seen {
		if s {
			evidence = true
			break
		}
	}
	if !evidence {
		return false
	}

	// Promotion threshold: argmin over T of Σ_{a<=T} F(a) + K·F(T), with
	// hysteresis in favor of the incumbent.
	bestT, bestCost := 1, math.Inf(1)
	curCost := math.Inf(1)
	cur := c.threshold
	if cur > maxThreshold {
		cur = maxThreshold
	}
	var reach [heap.TenureAgeClasses + 1]float64 // reach[T] = F(T)
	F, cum := 1.0, 0.0
	for T := 1; T <= maxThreshold; T++ {
		F *= c.fhat(T - 1)
		reach[T] = F
		cum += F
		cost := cum + c.k*F
		if cost < bestCost {
			bestCost, bestT = cost, T
		}
		if T == cur {
			curCost = cost
		}
	}
	if bestT == maxThreshold {
		// The argmin hit the cap: no resolved age class makes promotion
		// pay, so do not promote at all.
		bestT = heap.TenureNever
	}
	if bestT != c.threshold && bestCost < curCost*(1-hysteresis) {
		newT := bestT
		if bestT > c.threshold && c.threshold < maxThreshold {
			newT = c.threshold + 1
		}
		if newT >= maxThreshold {
			newT = heap.TenureNever
		} else if reach[newT] < promotionEpsilon {
			newT = heap.TenureNever
		}
		if newT != c.threshold {
			c.threshold = newT
			c.adaptations++
			changed = true
		}
	}

	// Nursery trigger: steer the fresh-word survival rate toward the
	// target by multiplicative adjustment within [cap/4, cap].
	if nurseryCap > 0 && c.seen[0] {
		trigger := c.trigger
		if trigger <= 0 {
			trigger = nurseryCap
		}
		switch f0 := c.f[0]; {
		case f0 > targetSurvival:
			trigger = trigger * 5 / 4
		case f0 < targetSurvival/16:
			// Shrinking adds minor collections, each of which re-copies
			// every survivor, so it only pays when survival is negligible.
			trigger = trigger * 4 / 5
		}
		if trigger > nurseryCap {
			trigger = nurseryCap
		}
		if trigger < nurseryCap/4 {
			trigger = nurseryCap / 4
		}
		if trigger != c.trigger {
			c.trigger = trigger
			c.adaptations++
			changed = true
		}
	}
	return changed
}
