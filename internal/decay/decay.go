// Package decay implements the radioactive decay model of Section 2: every
// live object's remaining lifetime is exponentially distributed with a
// single half-life h, so an object's age carries no information about its
// future — the property that defeats every lifetime-prediction heuristic.
//
// Time is measured in allocated objects, as in the paper. The workload
// generator samples each new object's lifetime geometrically at birth
// (memorylessness makes the two formulations identical) and severs the
// object's root when its time arrives, leaving the garbage for whichever
// collector manages the heap.
package decay

import (
	"math"
	"math/rand"

	"rdgc/internal/heap"
)

// Model is the radioactive decay model with half-life H (in allocated
// objects). For every live object, P(alive after t more allocations) =
// 2^(−t/h).
type Model struct {
	H float64
}

// R returns the per-allocation survival probability r = 2^(−1/h).
func (m Model) R() float64 { return math.Exp2(-1 / m.H) }

// EquilibriumLive returns the expected number of live objects at
// equilibrium, n = 1/(1−r) ≈ h/ln 2 ≈ 1.4427·h (equation 1).
func (m Model) EquilibriumLive() float64 { return 1 / (1 - m.R()) }

// Survival returns 2^(−t/h), the probability an object lives t more ticks.
func (m Model) Survival(t float64) float64 { return math.Exp2(-t / m.H) }

// ValidHalfLife reports whether h can parameterize the model: finite and
// positive. NaN would make every lifetime uint64(NaN) — nothing ever dies —
// and h ≤ 0 would give every object lifetime 1.
func ValidHalfLife(h float64) bool { return h > 0 && !math.IsInf(h, 1) }

// logR returns log r, the denominator of every lifetime draw.
func (m Model) logR() float64 { return math.Log(m.R()) }

// SampleLifetime draws a lifetime (in allocations) from the geometric
// distribution with survival rate r: the smallest t ≥ 1 with U > r^t. It is
// the one-shot form and the definition; a Workload computes log r once and
// draws the same stream through lifetime, a batch at a time (refill).
func (m Model) SampleLifetime(rng *rand.Rand) uint64 { return lifetime(rng, m.logR()) }

// lifetime draws a uniform U in (0, 1) and returns lifetimeOf it.
func lifetime(rng *rand.Rand, logR float64) uint64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return lifetimeOf(u, logR)
}

// lifetimeOf returns max(1, ceil(log u / log r)). The division is by log r
// itself, not a multiplication by a precomputed 1/log r: the reciprocal
// rounds differently on rare uniforms, and the lifetime stream — hence every
// allocation count and digest downstream — is pinned bit for bit
// (TestLifetimeStream).
func lifetimeOf(u, logR float64) uint64 {
	t := math.Ceil(math.Log(u) / logR)
	if t < 1 {
		t = 1
	}
	return uint64(t)
}

// wheel is a hashed timing wheel of scheduled root severings, keyed by death
// tick. The model's clock advances by exactly one per allocation, so the
// deaths due now are exactly those in bucket now&mask whose tick has arrived:
// scheduling and expiry are O(1) where a priority queue pays O(log n) in
// unpredictable compares. Every live object owns exactly one global slot, so
// an entry is the slot's index threaded through next/at and nothing is
// allocated per death. An entry whose tick lies a lap or more ahead (a
// lifetime ≥ the span) simply stays in its bucket until its own lap comes
// round; correctness never depends on the span, only the time spent walking
// past such stragglers does.
//
// The span is a power of two kept at four or more buckets per entry held,
// until maxSpan: a bucket then averages at most a quarter of an entry
// whatever the lifetimes are, and under pure decay (1.44h live objects, so a
// span of 5.8h to 11.5h) only lifetimes past 5.8 half-lives, under 2 % of
// draws, outlast a lap. A wheel starts small and doubles as the population
// grows, like the slot table beside it, so a new workload pays for no
// buckets it may never fill.
//
// Buckets are FIFO, growth keeps their order, and an object is pushed once,
// at birth, so deaths due at the same tick expire in birth order.
type wheel struct {
	mask    uint64
	buckets []bucket
	held    int     // entries in the wheel
	maxSpan int     // growth stops here
	next    []int32 // per slot: the entry after it in its bucket or due chain
	at      []uint64
}

// bucket names the first and last entry of a FIFO list, -1 when empty.
type bucket struct{ head, tail int32 }

// Wheel span bounds, in buckets (8 bytes each): where a workload's wheel
// starts, and the 8 MB past which a larger population buys longer buckets
// instead of more of them.
const (
	minWheelSpan = 1 << 6
	maxWheelSpan = 1 << 20
)

// newWheel returns an empty wheel of span buckets that grows up to maxSpan;
// both must be powers of two.
func newWheel(span, maxSpan int) *wheel {
	q := &wheel{maxSpan: maxSpan}
	q.resize(span)
	return q
}

// resize replaces the buckets with span empty ones.
func (q *wheel) resize(span int) {
	q.mask, q.buckets = uint64(span-1), make([]bucket, span)
	for b := range q.buckets {
		q.buckets[b] = bucket{-1, -1}
	}
}

// push schedules slot to expire at tick at, which must lie after the last
// tick expired. A slot holds at most one entry at a time.
func (q *wheel) push(slot int32, at uint64) {
	for int(slot) >= len(q.next) {
		q.next = append(q.next, -1)
		q.at = append(q.at, 0)
	}
	q.at[slot] = at
	q.link(slot)
	q.held++
	if span := len(q.buckets); q.held > span/4 && span < q.maxSpan {
		// Double. A new bucket draws from one old bucket only, walked in
		// order, so every list keeps its order.
		old := q.buckets
		q.resize(2 * span)
		for _, b := range old {
			for s := b.head; s >= 0; {
				n := q.next[s]
				q.link(s)
				s = n
			}
		}
	}
}

// link appends slot to the bucket of its tick.
func (q *wheel) link(slot int32) {
	q.next[slot] = -1
	b := &q.buckets[q.at[slot]&q.mask]
	if b.tail >= 0 {
		q.next[b.tail] = slot
	} else {
		b.head = slot
	}
	b.tail = slot
}

// expire unlinks the entries due at tick now and returns the first of them,
// or -1; the rest follow through next, in birth order, until the next push.
// It must be called for every tick in turn.
func (q *wheel) expire(now uint64) int32 {
	b := &q.buckets[now&q.mask]
	s := b.head
	if s < 0 {
		return -1
	}
	// Split the bucket into the due chain and the stragglers kept, each in
	// its original order. dueLink and keepLink point at the field that names
	// their chain's next entry: its head until the chain has one, then its
	// last entry's next.
	due, keep, keepTail := int32(-1), int32(-1), int32(-1)
	dueLink, keepLink := &due, &keep
	for s >= 0 {
		n := q.next[s]
		if q.at[s] <= now {
			*dueLink, dueLink = s, &q.next[s]
			q.held--
		} else {
			*keepLink, keepLink, keepTail = s, &q.next[s], s
		}
		s = n
	}
	*dueLink, *keepLink = -1, -1
	b.head, b.tail = keep, keepTail
	return due
}

// Workload drives a heap with radioactive-decay allocation. Each live
// object is held by exactly one global root slot; death clears the slot.
// Objects are pairs (car = a fixnum serial, cdr = empty or a link), so each
// object is ObjectWords words including its header.
type Workload struct {
	H *heap.Heap
	// Model is read-only once NewWorkload returns: the lifetime draws divide
	// by a log r computed from it there.
	Model Model

	rng    *rand.Rand
	deaths *wheel

	slots     []heap.Ref // global slots, one per potentially-live object
	freeSlots []int32

	clock uint64 // objects allocated

	// linkProb is the probability that a new object's cdr points to a
	// random live object, used by the remembered-set growth experiment
	// (§8.3). It perturbs liveness (a linked object stays reachable while
	// its referrer lives), so mark/cons experiments leave it zero.
	linkProb float64

	// sizeMin/sizeMax, when set, allocate vectors with payloads drawn
	// uniformly from [sizeMin, sizeMax] instead of pairs — the
	// object-size ablation. The analysis of Section 5 is stated in words,
	// so mark/cons ratios should not depend on the distribution.
	sizeMin, sizeMax int

	// infantProb mixes in infant mortality: with this probability a new
	// object's lifetime is drawn with half-life infantH instead of H. At
	// infantProb = 0 this is the pure radioactive decay model; at high
	// values it approximates the weak generational hypothesis of §7 while
	// the survivors still decay memorylessly.
	infantProb float64
	infantH    float64

	// logR and infantLogR are log r for Model.H and infantH, computed once
	// in NewWorkload: every draw divides by one of them.
	logR, infantLogR float64

	// ahead holds lifetimes drawn before the steps that will use them:
	// ahead[aheadPos:batch] are still to be handed out. batch is how many
	// refill draws at a time, fixed in NewWorkload.
	ahead    [lifetimeBatch]uint64
	aheadPos int
	batch    int
}

// ObjectWords is the heap footprint of one workload object (header + car +
// cdr) when census tracking is off.
const ObjectWords = 3

// Option configures a Workload.
type Option func(*Workload)

// WithLinking sets the probability that a new object references a random
// live object.
func WithLinking(p float64) Option { return func(w *Workload) { w.linkProb = p } }

// WithSizes draws each object's payload uniformly from [min, max] words
// (allocated as vectors) instead of fixed-size pairs.
func WithSizes(min, max int) Option {
	if min < 1 || max < min {
		panic("decay: bad size range")
	}
	return func(w *Workload) { w.sizeMin, w.sizeMax = min, max }
}

// WithInfantMortality makes a fraction p of objects die with half-life
// infantH (objects) instead of the model's H.
func WithInfantMortality(p, infantH float64) Option {
	if !(p >= 0 && p <= 1) || !ValidHalfLife(infantH) {
		panic("decay: bad infant mortality parameters")
	}
	return func(w *Workload) { w.infantProb, w.infantH = p, infantH }
}

// ExpectedLive returns the equilibrium live population (objects) under the
// configured lifetime mixture, by Little's law: the mean lifetime.
func (w *Workload) ExpectedLive() float64 {
	long := w.Model.EquilibriumLive()
	if w.infantProb == 0 {
		return long
	}
	short := Model{H: w.infantH}.EquilibriumLive()
	return w.infantProb*short + (1-w.infantProb)*long
}

// lifetimeBatch is how many steps ahead a workload draws its lifetimes. A
// draw is a logarithm and a division; taken one a step they sit on the
// step's dependency chain between the root store and the wheel push, taken
// together they overlap in the pipeline.
const lifetimeBatch = 64

// sampleLifetime hands out the next lifetime of the stream.
func (w *Workload) sampleLifetime() uint64 {
	if w.aheadPos == w.batch {
		w.refill()
	}
	t := w.ahead[w.aheadPos]
	w.aheadPos++
	return t
}

// refill draws the next batch lifetimes, consuming rng exactly as that many
// one-at-a-time draws would — the infant-mortality coin before each lifetime
// — so the stream does not depend on the batch length.
func (w *Workload) refill() {
	for i := range w.ahead[:w.batch] {
		logR := w.logR
		if w.infantProb > 0 && w.rng.Float64() < w.infantProb {
			logR = w.infantLogR
		}
		w.ahead[i] = lifetime(w.rng, logR)
	}
	w.aheadPos = 0
}

// NewWorkload creates a decay workload over heap h with the given
// half-life (in objects, finite and positive) and deterministic seed.
func NewWorkload(h *heap.Heap, halfLife float64, seed int64, opts ...Option) *Workload {
	if !ValidHalfLife(halfLife) {
		panic("decay: bad half-life")
	}
	w := &Workload{
		H:      h,
		Model:  Model{H: halfLife},
		rng:    rand.New(rand.NewSource(seed)),
		deaths: newWheel(minWheelSpan, maxWheelSpan),
	}
	for _, o := range opts {
		o(w)
	}
	w.logR = w.Model.logR()
	if w.infantProb > 0 {
		w.infantLogR = Model{H: w.infantH}.logR()
	}
	// A step of a linked or sized workload draws from rng between two
	// lifetimes (and linking reads the heap to do it), so drawing ahead would
	// reorder the stream: those run the same loop a lifetime at a time.
	w.batch = lifetimeBatch
	if w.linkProb > 0 || w.sizeMax > 0 {
		w.batch = 1
	}
	w.aheadPos = w.batch
	return w
}

// Clock returns the number of objects allocated so far.
func (w *Workload) Clock() uint64 { return w.clock }

// LiveObjects returns the number of objects whose roots are still set.
func (w *Workload) LiveObjects() int { return w.deaths.held }

// Step allocates one object with a sampled lifetime, after severing the
// roots of every object whose death time has arrived, in birth order.
func (w *Workload) Step() {
	for slot := w.deaths.expire(w.clock); slot >= 0; slot = w.deaths.next[slot] {
		w.H.Set(w.slots[slot], heap.NullWord)
		w.freeSlots = append(w.freeSlots, slot)
	}

	s := w.H.Scope()
	cdr := w.H.Null()
	if w.linkProb > 0 && w.deaths.held > 0 && w.rng.Float64() < w.linkProb {
		if slot := w.randomLiveSlot(); slot >= 0 {
			cdr = w.H.Dup(w.slots[slot])
		}
	}
	var obj heap.Ref
	if w.sizeMax > 0 {
		size := w.sizeMin + w.rng.Intn(w.sizeMax-w.sizeMin+1)
		obj = w.H.MakeVector(size, cdr)
	} else {
		obj = w.H.Cons(w.H.Fix(int64(w.clock)), cdr)
	}

	slot := w.takeSlot()
	w.H.Set(w.slots[slot], w.H.Get(obj))
	s.Close()

	w.clock++
	w.deaths.push(slot, w.clock+w.sampleLifetime())
}

func (w *Workload) takeSlot() int32 {
	if n := len(w.freeSlots); n > 0 {
		slot := w.freeSlots[n-1]
		w.freeSlots = w.freeSlots[:n-1]
		return slot
	}
	w.slots = append(w.slots, w.H.GlobalWord(heap.NullWord))
	return int32(len(w.slots) - 1)
}

// randomLiveSlot samples a uniformly random occupied slot, or -1 if the
// occupancy is too sparse to find one quickly.
func (w *Workload) randomLiveSlot() int {
	for tries := 0; tries < 16; tries++ {
		slot := w.rng.Intn(len(w.slots))
		if w.H.Get(w.slots[slot]) != heap.NullWord {
			return slot
		}
	}
	return -1
}

// Run performs n allocation steps.
func (w *Workload) Run(n int) {
	for i := 0; i < n; i++ {
		w.Step()
	}
}

// Warmup runs the workload for the given number of half-lives so the live
// population reaches its equilibrium of about 1.4427·h objects.
func (w *Workload) Warmup(halfLives float64) {
	w.Run(int(halfLives * w.Model.H))
}
