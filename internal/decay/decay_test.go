package decay

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

func TestSampleLifetimeMean(t *testing.T) {
	// A geometric lifetime with survival rate r has mean 1/(1−r), which is
	// the equilibrium population n (that coincidence is how equation (1)
	// falls out of Little's law).
	m := Model{H: 256}
	rng := rand.New(rand.NewSource(1))
	var sum float64
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += float64(m.SampleLifetime(rng))
	}
	mean := sum / trials
	want := m.EquilibriumLive()
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("mean lifetime = %.1f, want about %.1f", mean, want)
	}
}

func TestSurvivalMatchesHalfLife(t *testing.T) {
	m := Model{H: 100}
	rng := rand.New(rand.NewSource(2))
	const trials = 100000
	survived := 0
	for i := 0; i < trials; i++ {
		if m.SampleLifetime(rng) > 100 {
			survived++
		}
	}
	got := float64(survived) / trials
	if math.Abs(got-0.5) > 0.01 {
		t.Errorf("P(live past one half-life) = %.3f, want 0.50", got)
	}
}

// refQueue is the wheel's specification: pending deaths in a flat slice,
// those due sorted by (tick, birth) at every expiry.
type refQueue []refDeath

type refDeath struct {
	at, birth uint64
	slot      int32
}

func (r *refQueue) expire(now uint64) []int32 {
	var due, keep []refDeath
	for _, d := range *r {
		if d.at <= now {
			due = append(due, d)
		} else {
			keep = append(keep, d)
		}
	}
	*r = keep
	sort.Slice(due, func(i, j int) bool {
		if due[i].at != due[j].at {
			return due[i].at < due[j].at
		}
		return due[i].birth < due[j].birth
	})
	slots := make([]int32, len(due))
	for i, d := range due {
		slots[i] = d.slot
	}
	return slots
}

func TestWheelMatchesReference(t *testing.T) {
	geometric := func(h float64) func(*rand.Rand) uint64 {
		logR := Model{H: h}.logR()
		return func(rng *rand.Rand) uint64 { return lifetime(rng, logR) }
	}
	one := func(*rand.Rand) int { return 1 }
	cases := []struct {
		name   string
		span   int // the wheel's first span
		cap    int // and its last
		ticks  int
		pushes func(*rand.Rand) int // births this tick
		life   func(*rand.Rand) uint64
	}{
		// As a Workload builds it: the wheel doubles three times on the way
		// to equilibrium, relinking what it holds.
		{"growing", minWheelSpan, maxWheelSpan, 40000, one, geometric(64)},
		// Mean lifetime 369 ticks on a wheel held to 8 buckets: nearly every
		// entry waits out dozens of laps in place.
		{"all stragglers", 8, 8, 30000, one, geometric(256)},
		// Few entries, so a small wheel, and a tenth of them long-lived:
		// stragglers among the due on a wheel that is still growing.
		{"infant mixture", 2, maxWheelSpan, 30000, one, func(rng *rand.Rand) uint64 {
			if rng.Float64() < 0.9 {
				return geometric(2)(rng)
			}
			return geometric(128)(rng)
		}},
		// Several births a tick, lifetimes from a handful of values one or
		// more whole laps apart: long runs of equal ticks, due entries
		// interleaved in their bucket with entries of later laps.
		{"equal-tick bursts", 16, 16, 10000, func(rng *rand.Rand) int { return rng.Intn(6) },
			func(rng *rand.Rand) uint64 { return []uint64{1, 5, 16, 21, 37, 64}[rng.Intn(6)] }},
	}
	pushes := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.ticks + tc.span)))
			q := newWheel(tc.span, tc.cap)
			var ref refQueue
			var free []int32
			var slots int32
			var birth uint64
			for now := uint64(1); now <= uint64(tc.ticks) || len(ref) > 0; now++ {
				var got []int32
				for s := q.expire(now); s >= 0; s = q.next[s] {
					got = append(got, s)
				}
				want := ref.expire(now)
				if !slices.Equal(got, want) {
					t.Fatalf("tick %d: wheel severed %v, reference %v", now, got, want)
				}
				free = append(free, got...)
				if now > uint64(tc.ticks) {
					continue // drain what is left
				}
				for n := tc.pushes(rng); n > 0; n-- {
					var slot int32
					if k := len(free); k > 0 {
						slot, free = free[k-1], free[:k-1]
					} else {
						slot = slots
						slots++
					}
					at := now + tc.life(rng)
					q.push(slot, at)
					ref = append(ref, refDeath{at: at, birth: birth, slot: slot})
					birth++
				}
			}
			for i, b := range q.buckets {
				if b != (bucket{-1, -1}) {
					t.Fatalf("bucket %d not empty after the last death", i)
				}
			}
			if q.held != 0 {
				t.Errorf("wheel counts %d entries after the last death", q.held)
			}
			if tc.cap > tc.span && len(q.buckets) == tc.span {
				t.Errorf("wheel never grew from %d buckets", tc.span)
			}
			pushes += int(birth)
		})
	}
	if pushes < 100000 {
		t.Errorf("drove %d pushes, want at least 1e5", pushes)
	}
}

func TestLifetimeStream(t *testing.T) {
	// A Workload's draws, which divide by a log r computed once, must equal
	// the definition draw for draw, infant coin flips included.
	definition := func(u, h float64) uint64 {
		return uint64(math.Max(1, math.Ceil(math.Log(u)/math.Log(math.Exp2(-1/h)))))
	}
	for _, tc := range []struct{ h, infantProb, infantH float64 }{
		{h: 1}, {h: 3.5}, {h: 192}, {h: 768}, {h: 1024}, {h: 1e6},
		{h: 1024, infantProb: 0.5, infantH: 16},
		{h: 768, infantProb: 0.9, infantH: 3},
	} {
		var opts []Option
		if tc.infantProb > 0 {
			opts = append(opts, WithInfantMortality(tc.infantProb, tc.infantH))
		}
		w := NewWorkload(heap.New(), tc.h, 11, opts...)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 100000; i++ {
			h := tc.h
			if tc.infantProb > 0 && rng.Float64() < tc.infantProb {
				h = tc.infantH
			}
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			if got, want := w.sampleLifetime(), definition(u, h); got != want {
				t.Fatalf("%+v: draw %d = %d, want %d", tc, i, got, want)
			}
		}
	}

	// Multiplying by a precomputed 1/log r would be faster and is not the
	// same function: the two roundings part only where log u / log r falls
	// within an ulp of an integer, which none of the streams above meets, so
	// pin a uniform where they do.
	u, logR := math.Exp2(-29), Model{H: 1}.logR()
	if recip := uint64(math.Ceil(math.Log(u) * (1 / logR))); recip == definition(u, 1) {
		t.Fatalf("u = 2^-29 at h = 1 no longer separates division from reciprocal (both %d)", recip)
	}
	if got, want := lifetimeOf(u, logR), definition(u, 1); got != want {
		t.Errorf("lifetimeOf(2^-29, log ½) = %d, want %d", got, want)
	}
}

func TestExpectedLiveIsMeanLifetime(t *testing.T) {
	// Little's law at one arrival a tick: the equilibrium population is the
	// mean lifetime, for the pure model and for the infant mixture.
	for _, opts := range [][]Option{nil, {WithInfantMortality(0.9, 4)}} {
		w := NewWorkload(heap.New(), 256, 8, opts...)
		var sum float64
		const trials = 200000
		for i := 0; i < trials; i++ {
			sum += float64(w.sampleLifetime())
		}
		if mean, want := sum/trials, w.ExpectedLive(); math.Abs(mean-want)/want > 0.03 {
			t.Errorf("%d options: mean lifetime %.1f, ExpectedLive %.1f", len(opts), mean, want)
		}
	}
}

func TestBadParametersPanic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, f := range map[string]func(){
		"h NaN":        func() { NewWorkload(heap.New(), nan, 1) },
		"h +Inf":       func() { NewWorkload(heap.New(), inf, 1) },
		"h zero":       func() { NewWorkload(heap.New(), 0, 1) },
		"h negative":   func() { NewWorkload(heap.New(), -8, 1) },
		"infant p NaN": func() { WithInfantMortality(nan, 4) },
		"infant p > 1": func() { WithInfantMortality(1.5, 4) },
		"infant h NaN": func() { WithInfantMortality(0.5, nan) },
		"infant h Inf": func() { WithInfantMortality(0.5, inf) },
		"infant h 0":   func() { WithInfantMortality(0.5, 0) },
		"sizes empty":  func() { WithSizes(4, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestStepAllocatesNothing(t *testing.T) {
	// At equilibrium the slot table, the free stack and the wheel's per-slot
	// arrays have reached their sizes and a step, deaths and collections
	// included, allocates no Go object.
	const h = 256.0
	heapObj := heap.New()
	semispace.New(heapObj, int(3.5*Model{H: h}.EquilibriumLive()*ObjectWords))
	w := NewWorkload(heapObj, h, 6)
	w.Warmup(40)
	if avg := testing.AllocsPerRun(20000, w.Step); avg != 0 {
		t.Errorf("Step allocates %.2f Go objects at equilibrium, want 0", avg)
	}
}

func TestEquilibriumPopulation(t *testing.T) {
	// Equation (1): live storage at equilibrium is about 1.4427·h objects.
	const h = 512.0
	heapObj := heap.New()
	semispace.New(heapObj, 1<<20)
	w := NewWorkload(heapObj, h, 42)
	w.Warmup(12)

	want := w.Model.EquilibriumLive()
	// Average the live population over a few half-lives to smooth noise.
	var sum float64
	const samples = 2000
	for i := 0; i < samples; i++ {
		w.Run(int(h) / 100)
		sum += float64(w.LiveObjects())
	}
	mean := sum / samples
	if math.Abs(mean-want)/want > 0.10 {
		t.Errorf("equilibrium live = %.1f objects, want about %.1f", mean, want)
	}
}

func TestAgeGivesNoInformation(t *testing.T) {
	// The defining property of the model: among objects alive now, the
	// young and the old survive the next interval at the same rate.
	m := Model{H: 200}
	rng := rand.New(rand.NewSource(7))
	const cohort = 60000
	interval := uint64(100)

	// "Young" objects alive at age 50, "old" objects alive at age 600:
	// measure each group's survival for `interval` more ticks.
	rate := func(age uint64) float64 {
		alive, survived := 0, 0
		for i := 0; i < cohort; i++ {
			lt := m.SampleLifetime(rng)
			if lt <= age {
				continue
			}
			alive++
			if lt > age+interval {
				survived++
			}
		}
		if alive == 0 {
			return math.NaN()
		}
		return float64(survived) / float64(alive)
	}
	young, old := rate(50), rate(600)
	want := m.Survival(float64(interval))
	if math.Abs(young-want) > 0.02 || math.Abs(old-want) > 0.03 {
		t.Errorf("survival young=%.3f old=%.3f, want both about %.3f", young, old, want)
	}
}

func TestWorkloadStructureIsConsistent(t *testing.T) {
	heapObj := heap.New()
	semispace.New(heapObj, 1<<18)
	w := NewWorkload(heapObj, 128, 3)
	w.Run(5000)
	live := 0
	for _, r := range w.slots {
		if heapObj.Get(r) != heap.NullWord {
			live++
		}
	}
	if live != w.LiveObjects() {
		t.Errorf("slot scan found %d live, counter says %d", live, w.LiveObjects())
	}
	if w.Clock() != 5000 {
		t.Errorf("clock = %d, want 5000", w.Clock())
	}
}

func TestLinkedWorkload(t *testing.T) {
	heapObj := heap.New()
	semispace.New(heapObj, 1<<18)
	w := NewWorkload(heapObj, 128, 4, WithLinking(0.5))
	w.Run(5000)
	// Some objects must have pair cdrs.
	linked := 0
	s := heapObj.Scope()
	defer s.Close()
	for _, r := range w.slots {
		if heapObj.Get(r) == heap.NullWord {
			continue
		}
		if heapObj.IsPair(heapObj.Cdr(r)) {
			linked++
		}
	}
	if linked == 0 {
		t.Error("WithLinking(0.5) produced no linked objects")
	}
}

func TestSizedWorkload(t *testing.T) {
	heapObj := heap.New()
	semispace.New(heapObj, 1<<19)
	w := NewWorkload(heapObj, 128, 5, WithSizes(2, 10))
	w.Run(5000)
	// Objects must be vectors with payloads in range.
	s := heapObj.Scope()
	defer s.Close()
	checked := 0
	for _, r := range w.slots {
		if heapObj.Get(r) == heap.NullWord {
			continue
		}
		if !heapObj.IsVector(r) {
			t.Fatal("sized workload allocated a non-vector")
		}
		if n := heapObj.VectorLen(r); n < 2 || n > 10 {
			t.Fatalf("vector payload %d out of [2,10]", n)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing live to check")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, int) {
		heapObj := heap.New()
		c := semispace.New(heapObj, 1<<18)
		w := NewWorkload(heapObj, 128, 99)
		w.Run(20000)
		return heapObj.Stats.WordsAllocated, c.GCStats().Collections
	}
	a1, c1 := run()
	a2, c2 := run()
	if a1 != a2 || c1 != c2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", a1, c1, a2, c2)
	}
}

// TestBatchLengthDoesNotShow: a workload that draws its lifetimes 64 ahead
// and one forced to draw them one at a time are the same run — every slot's
// death tick, the free-slot stack and the allocation clock in words equal
// after every step, and the heaps word for word at the end, under a
// collector that moves objects and keeps a remembered set. A sized or linked
// workload draws from the same stream between two lifetimes, so NewWorkload
// must have given it the batch of one itself: against the forced side it is
// then the same run too, and with any longer batch it is not.
func TestBatchLengthDoesNotShow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int
		opts  []Option
	}{
		{"pure decay", lifetimeBatch, nil},
		{"infant mixture", lifetimeBatch, []Option{WithInfantMortality(0.5, 16)}},
		{"sizes", 1, []Option{WithSizes(2, 10)}},
		{"linking", 1, []Option{WithLinking(0.2)}},
		{"sizes + infant", 1, []Option{WithSizes(1, 6), WithInfantMortality(0.9, 3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*Workload, *generational.Collector) {
				h := heap.New()
				c := generational.New(h, 1<<10, 1<<14)
				return NewWorkload(h, 128, 21, tc.opts...), c
			}
			batched, cb := build()
			single, cs := build()
			if batched.batch != tc.batch {
				t.Fatalf("NewWorkload chose a batch of %d, want %d", batched.batch, tc.batch)
			}
			single.batch, single.aheadPos = 1, 1
			for step := 0; step < 30000; step++ {
				batched.Step()
				single.Step()
				if !slices.Equal(batched.deaths.at, single.deaths.at) {
					t.Fatalf("step %d: death ticks by slot differ", step)
				}
				if !slices.Equal(batched.freeSlots, single.freeSlots) {
					t.Fatalf("step %d: free slots differ", step)
				}
				if batched.H.Stats != single.H.Stats {
					t.Fatalf("step %d: allocated %+v, one at a time %+v", step, batched.H.Stats, single.H.Stats)
				}
			}
			if *cb.GCStats() != *cs.GCStats() {
				t.Errorf("GCStats %+v, one at a time %+v", *cb.GCStats(), *cs.GCStats())
			}
			if cb.GCStats().Collections < 10 {
				t.Errorf("%d collections: the heaps were hardly exercised", cb.GCStats().Collections)
			}
			for i, s := range batched.H.Spaces {
				o := single.H.Spaces[i]
				if s.Top != o.Top || !slices.Equal(s.Mem[:s.Top], o.Mem[:o.Top]) {
					t.Errorf("%v differs from %v, one at a time", s, o)
				}
			}
		})
	}
}
