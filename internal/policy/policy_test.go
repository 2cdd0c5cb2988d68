package policy

import (
	"math"
	"testing"

	"rdgc/internal/heap"
)

// simulator drives a controller with synthetic steady-state workloads: each
// round, every age class's at-risk population survives at the workload's
// per-class fraction, and the survivors are split between retention and
// promotion according to the threshold the controller currently commands —
// exactly the feedback loop a tenuring collector closes.
type simulator struct {
	ctrl    *Controller
	survive func(age int) float64
	fresh   uint64
	cap     int
	pop     [heap.TenureAgeClasses]uint64
}

func newSimulator(survive func(age int) float64, fresh uint64, cap int) *simulator {
	return &simulator{ctrl: New(Config{}), survive: survive, fresh: fresh, cap: cap}
}

// round plays one nursery collection and feeds the evidence back.
func (s *simulator) round() Decision {
	threshold := s.ctrl.Threshold()
	var o Observation
	o.FreshWords = s.fresh
	o.NurseryCap = s.cap
	for a := 0; a < heap.TenureAgeClasses; a++ {
		at := s.pop[a]
		if a == 0 {
			at = s.fresh
		}
		surv := uint64(float64(at) * s.survive(a))
		o.SurvByAge[a] = surv
		newAge := a + 1
		if newAge > heap.TenureAgeClasses-1 {
			newAge = heap.TenureAgeClasses - 1
		}
		if threshold == heap.TenureNever || a+1 < threshold {
			o.RetainedByAge[newAge] += surv
		} else {
			o.PromotedWords += surv
		}
	}
	s.pop = o.RetainedByAge
	return s.ctrl.Observe(o)
}

// TestDecayConvergesToNeverPromote: under radioactive decay the survival
// fraction is age-invariant and well below K/(K+1), so every promotion is a
// wasted old-area copy and the copy-cost argmin is the largest threshold.
// The controller must ramp away from wholesale and settle at TenureNever.
func TestDecayConvergesToNeverPromote(t *testing.T) {
	s := newSimulator(func(int) float64 { return 0.25 }, 8192, 8192)
	for i := 0; i < 60; i++ {
		s.round()
	}
	if got := s.ctrl.Threshold(); got != heap.TenureNever {
		t.Fatalf("decay workload: threshold = %d, want TenureNever", got)
	}
	// And it stays there: the policy must not flap once converged.
	before := s.ctrl.Adaptations()
	for i := 0; i < 40; i++ {
		s.round()
	}
	if s.ctrl.Threshold() != heap.TenureNever {
		t.Fatal("threshold left TenureNever on a stationary decay workload")
	}
	if got := s.ctrl.Adaptations(); got != before {
		t.Errorf("threshold flapped after convergence: %d adaptations grew to %d", before, got)
	}
}

// TestBimodalConvergesToFiniteThreshold: when words either die young or
// live (nearly) forever, retaining the immortals re-copies them every
// nursery collection for nothing, so a small finite threshold wins. Here
// survival is 60% at age 0, 10% at age 1, and ~99% after — the argmin of
// C(T) is T = 2.
func TestBimodalConvergesToFiniteThreshold(t *testing.T) {
	survive := func(age int) float64 {
		switch age {
		case 0:
			return 0.6
		case 1:
			return 0.1
		default:
			return 0.99
		}
	}
	s := newSimulator(survive, 8192, 8192)
	for i := 0; i < 120; i++ {
		s.round()
	}
	got := s.ctrl.Threshold()
	if got == heap.TenureNever {
		t.Fatal("bimodal workload: controller stuck at TenureNever")
	}
	if got != 2 {
		t.Fatalf("bimodal workload: threshold = %d, want the copy-cost argmin 2", got)
	}
}

// TestControllerIsDeterministic: the decision sequence is a pure function
// of the observation sequence — two controllers fed the same observations
// agree decision by decision and end in the same state.
func TestControllerIsDeterministic(t *testing.T) {
	mkObs := func(i int) Observation {
		var o Observation
		o.FreshWords = 4096 + uint64(i%7)*512
		o.SurvByAge[0] = o.FreshWords / uint64(2+i%3)
		o.SurvByAge[1] = 300
		o.RetainedByAge[1] = o.SurvByAge[0]
		o.PromotedWords = o.SurvByAge[1]
		o.NurseryCap = 8192
		return o
	}
	a, b := New(Config{}), New(Config{})
	for i := 0; i < 50; i++ {
		o := mkObs(i)
		da, db := a.Observe(o), b.Observe(o)
		if da != db {
			t.Fatalf("observation %d: decisions diverge: %+v vs %+v", i, da, db)
		}
		if i%10 == 3 {
			a.ObserveMajor(10000)
			b.ObserveMajor(10000)
		}
	}
	if a.Threshold() != b.Threshold() || a.Trigger() != b.Trigger() ||
		a.Adaptations() != b.Adaptations() || a.k != b.k {
		t.Fatalf("final states diverge: (%d,%d,%d,%g) vs (%d,%d,%d,%g)",
			a.Threshold(), a.Trigger(), a.Adaptations(), a.k,
			b.Threshold(), b.Trigger(), b.Adaptations(), b.k)
	}
}

// TestObserveIsAllocationFree pins the steady-state decision path at zero
// allocations: Observe runs inside every minor collection pause.
func TestObserveIsAllocationFree(t *testing.T) {
	c := New(Config{})
	var o Observation
	o.FreshWords = 4096
	o.SurvByAge[0] = 1024
	o.SurvByAge[1] = 256
	o.RetainedByAge[1] = 1024
	o.PromotedWords = 256
	o.NurseryCap = 8192
	if avg := testing.AllocsPerRun(100, func() {
		c.Observe(o)
	}); avg != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		c.ObserveMajor(5000)
	}); avg != 0 {
		t.Fatalf("ObserveMajor allocates %.1f times per call, want 0", avg)
	}
}

// TestObserveMajorEstimatesOldCopyCost: K is measured as major-collection
// copied words per word promoted since the previous major, first sample
// replacing the seed, later samples EWMA-blended, all clamped to [0.5, 16].
func TestObserveMajorEstimatesOldCopyCost(t *testing.T) {
	c := New(Config{})
	if got := c.k; got != 4 {
		t.Fatalf("seed K = %g, want 4", got)
	}

	// A major with no promotions since the last one teaches nothing.
	c.ObserveMajor(12345)
	if got := c.k; got != 4 {
		t.Fatalf("K moved without promotion evidence: %g", got)
	}

	var o Observation
	o.FreshWords = 4096
	o.PromotedWords = 1000
	o.NurseryCap = 8192
	c.Observe(o)
	c.ObserveMajor(8000) // 8 copies per promoted word
	if got := c.k; got != 8 {
		t.Fatalf("first measured K = %g, want 8", got)
	}

	// Clamping: an absurd major cannot capsize the estimate.
	c.Observe(o)
	c.ObserveMajor(1 << 30) // sample clamps to 16
	want := 0.3*16 + 0.7*8.0
	if got := c.k; math.Abs(got-want) > 1e-9 {
		t.Fatalf("clamped-high K = %g, want %g", got, want)
	}
	c.Observe(o)
	c.ObserveMajor(1) // sample clamps to 0.5
	want = 0.3*0.5 + 0.7*want
	if got := c.k; math.Abs(got-want) > 1e-9 {
		t.Fatalf("clamped-low K = %g, want %g", got, want)
	}
}

// TestTriggerSteering: the effective nursery size chases the target fresh
// survival rate — high survival grows the trigger to the full nursery,
// survival far below target shrinks it, never past the cap/4 floor.
func TestTriggerSteering(t *testing.T) {
	const cap = 8000
	c := New(Config{})
	hi := Observation{FreshWords: 4096, NurseryCap: cap}
	hi.SurvByAge[0] = 3500 // f(0) ~ 0.85, way above 1/3
	c.Observe(hi)
	if got := c.Trigger(); got != cap {
		t.Fatalf("high-survival trigger = %d, want the full nursery %d", got, cap)
	}

	lo := Observation{FreshWords: 4096, NurseryCap: cap}
	lo.SurvByAge[0] = 10 // f(0) ~ 0, far below the target/16 shrink bar
	for i := 0; i < 40; i++ {
		c.Observe(lo)
		if got := c.Trigger(); got < cap/4 || got > cap {
			t.Fatalf("trigger %d escaped [cap/4, cap]", got)
		}
	}
	if got := c.Trigger(); got != cap/4 {
		t.Fatalf("low-survival trigger = %d, want the floor %d", got, cap/4)
	}
}

// TestSmallSamplesTeachNothing: an age class below minSampleWords must not
// update the survival estimate — tiny populations are noise.
func TestSmallSamplesTeachNothing(t *testing.T) {
	c := New(Config{})
	var o Observation
	o.FreshWords = 32 // below the 64-word minimum
	o.SurvByAge[0] = 32
	o.NurseryCap = 8192
	c.Observe(o)
	if c.seen[0] {
		t.Fatal("a 32-word sample updated the age-0 estimate")
	}
	if got := c.Threshold(); got != 1 {
		t.Fatalf("threshold moved on no evidence: %d", got)
	}
}

// nurseryRig is the least a tenuring collector has — a nursery, its
// survivor shadow, an old target, one persistent evacuator — for driving
// Adapt with the evidence of real tenured collections.
type nurseryRig struct {
	h                    *heap.Heap
	nursery, shadow, old *heap.Space
	evac                 *heap.Evacuator
}

func newNurseryRig(words int) *nurseryRig {
	h := heap.New()
	r := &nurseryRig{
		h:       h,
		nursery: h.NewSpace("nursery", words),
		shadow:  h.NewSpace("shadow", words),
		old:     h.NewSpace("old", 4*words),
	}
	r.evac = heap.NewEvacuator(h, nil)
	h.SetAllocator(r)
	return r
}

func (r *nurseryRig) AllocRaw(t heap.Type, payload int) heap.Word {
	off, ok := r.nursery.Bump(1 + payload + r.h.ExtraWords())
	if !ok {
		panic("nurseryRig: nursery full")
	}
	return r.h.InitObject(r.nursery, off, t, payload)
}

// minor allocates garbage pairs plus one rooted list of live pairs, runs a
// tenured collection at the controller's threshold, flips, and returns the
// nursery words that were fresh.
func (r *nurseryRig) minor(threshold, garbage, live int) int {
	carry := r.nursery.Top
	sc := r.h.Scope()
	for i := 0; i < garbage; i++ {
		r.h.Cons(r.h.Fix(int64(i)), r.h.Null())
	}
	sc.Close()
	list := r.h.Null()
	for i := 0; i < live; i++ {
		list = r.h.Cons(r.h.Fix(int64(i)), list)
	}
	r.h.GlobalWord(r.h.Get(list))
	fresh := r.nursery.Top - carry
	r.evac.SetFrom(r.nursery)
	r.evac.BeginTenured(threshold, []*heap.Space{r.shadow}, r.old)
	r.evac.Run()
	r.nursery.Reset()
	r.nursery, r.shadow = r.shadow, r.nursery
	return fresh
}

// TestAdaptAppliesTheDecision: Adapt is Observe on the evacuator's tallies
// plus the clamps every tenuring collector applied by hand — an unset or
// oversized trigger means the nursery cap, retained survivors plus an
// eighth of the cap floor it, and the decision lands in GCStats.
func TestAdaptAppliesTheDecision(t *testing.T) {
	const words = 4096
	r := newNurseryRig(words)
	c, twin := New(Config{}), New(Config{})
	var stats heap.GCStats
	// observe feeds the twin what Adapt must have fed c.
	observe := func(fresh int) Decision {
		surv, retained := r.evac.SurvivorsByAge()
		return twin.Observe(Observation{
			FreshWords:    uint64(fresh),
			SurvByAge:     *surv,
			RetainedByAge: *retained,
			PromotedWords: r.evac.WordsPromoted,
			NurseryCap:    words,
		})
	}

	// Too small a sample to teach anything (and a negative fresh count,
	// which reads as zero): no trigger yet, so the cap.
	fresh := r.minor(c.Threshold(), 2, 1)
	observe(0)
	threshold, trigger := c.Adapt(r.evac, -fresh, r.nursery, &stats)
	if threshold != 1 || trigger != words {
		t.Fatalf("no evidence: threshold %d trigger %d, want 1 and the cap %d", threshold, trigger, words)
	}

	// Real evidence: the decision must be Observe's on the same tallies.
	for round := 0; round < 6; round++ {
		fresh = r.minor(threshold, 600, 40)
		want := observe(fresh)
		threshold, trigger = c.Adapt(r.evac, fresh, r.nursery, &stats)
		if threshold != want.Threshold {
			t.Fatalf("round %d: threshold %d, Observe decided %d", round, threshold, want.Threshold)
		}
		if floor := r.nursery.Top + words/8; trigger < floor || trigger > words || trigger < want.TriggerWords {
			t.Fatalf("round %d: trigger %d outside [max(floor %d, decided %d), cap %d]",
				round, trigger, floor, want.TriggerWords, words)
		}
		if stats.TenureThreshold != threshold || stats.PolicyAdaptations != c.Adaptations() {
			t.Fatalf("round %d: stats record threshold %d adaptations %d, want %d and %d",
				round, stats.TenureThreshold, stats.PolicyAdaptations, threshold, c.Adaptations())
		}
	}
	if c.Adaptations() == 0 {
		t.Fatal("six rounds of 6% survival moved no knob; the test exercises nothing")
	}

	// A nursery nearly full of retained survivors floors the trigger at the cap.
	r.nursery.Top = words - 8
	if _, trigger = c.Adapt(r.evac, 0, r.nursery, &stats); trigger != words {
		t.Fatalf("full nursery: trigger %d, want the cap %d", trigger, words)
	}
}
