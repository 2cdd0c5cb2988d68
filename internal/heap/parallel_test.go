package heap

import (
	"sort"
	"sync"
	"testing"
)

// buildForest hand-allocates a wide forest in s — chains pair-chains of
// length chainLen, each individually rooted — so a parallel drain has many
// independent branches to distribute. Returns the per-chain root refs.
func buildForest(t testing.TB, h *Heap, s *Space, chains, chainLen int) []Ref {
	t.Helper()
	roots := make([]Ref, chains)
	for c := 0; c < chains; c++ {
		roots[c] = h.GlobalWord(buildChain(t, h, s, chainLen))
	}
	return roots
}

// snapshot copies the used prefix of a space's memory for image comparison.
func snapshot(s *Space) []Word {
	return append([]Word(nil), s.Mem[:s.Top]...)
}

// TestParallelMarkMatchesSequential checks the mark engine's strictest
// contract: for every worker count the final mark-bit image (every header
// word of the heap), WordsMarked, and ObjectsMarked are bit-identical to
// the sequential drain.
func TestParallelMarkMatchesSequential(t *testing.T) {
	h := New(WithConfig(Config{})) // the reference run is the sequential engine
	s := h.NewSpace("forest", 1<<17)
	buildForest(t, h, s, 64, 100)

	m := NewMarker(h, nil)
	m.Run()
	wantWords, wantObjs := m.WordsMarked, m.ObjectsMarked
	wantImage := snapshot(s)
	ClearMarks(s)

	for _, workers := range []int{1, 2, 4, 8} {
		h.cfg.Workers = workers
		m.Begin()
		m.Run()
		if m.WordsMarked != wantWords || m.ObjectsMarked != wantObjs {
			t.Errorf("workers=%d: marked %d words / %d objects, sequential marked %d / %d",
				workers, m.WordsMarked, m.ObjectsMarked, wantWords, wantObjs)
		}
		got := snapshot(s)
		for i := range wantImage {
			if got[i] != wantImage[i] {
				t.Errorf("workers=%d: heap image diverges at word %d: got %#x want %#x",
					workers, i, got[i], wantImage[i])
				break
			}
		}
		ClearMarks(s)
	}
	h.cfg.Workers = 0
}

// TestParallelMarkBoundedRegion checks the region bitset bound is honored
// by parallel workers: pointers out of the region are leaves, exactly as in
// the sequential drain.
func TestParallelMarkBoundedRegion(t *testing.T) {
	h := New(WithConfig(Config{})) // the reference run is the sequential engine
	in := h.NewSpace("in-region", 1<<14)
	out := h.NewSpace("out-region", 1<<14)

	// A chain in `in` whose head pair also points at a chain in `out`.
	inHead := buildChain(t, h, in, 200)
	outHead := buildChain(t, h, out, 200)
	off, _ := in.Bump(3)
	root := h.InitObject(in, off, TPair, 2)
	in.Mem[off+1] = inHead
	in.Mem[off+2] = outHead
	h.GlobalWord(root)

	m := NewMarker(h, nil)
	m.SetRegion(in)
	m.Run()
	wantWords, wantObjs := m.WordsMarked, m.ObjectsMarked
	wantOut := snapshot(out)
	ClearMarks(in, out)

	for _, workers := range []int{1, 4} {
		h.cfg.Workers = workers
		m.Begin()
		m.SetRegion(in)
		m.Run()
		if m.WordsMarked != wantWords || m.ObjectsMarked != wantObjs {
			t.Errorf("workers=%d: bounded mark %d words / %d objects, want %d / %d",
				workers, m.WordsMarked, m.ObjectsMarked, wantWords, wantObjs)
		}
		for i, w := range snapshot(out) {
			if w != wantOut[i] {
				t.Fatalf("workers=%d: out-of-region space mutated at word %d", workers, i)
			}
		}
		ClearMarks(in, out)
	}
	h.cfg.Workers = 0
}

// chainCars walks a pair chain from head and returns the fixnum car of
// every pair, failing on any malformed link.
func chainCars(t *testing.T, h *Heap, head Word) []int64 {
	t.Helper()
	var cars []int64
	for w := head; w != NullWord; {
		if !IsPtr(w) {
			t.Fatalf("chain link is not a pointer: %#x", w)
		}
		s := h.Spaces[PtrSpace(w)]
		off := PtrOff(w)
		hdr := s.Mem[off]
		if HeaderType(hdr) != TPair {
			t.Fatalf("chain link is not a pair: header %#x", hdr)
		}
		cars = append(cars, FixnumVal(s.Mem[off+1]))
		w = s.Mem[off+2]
	}
	return cars
}

// TestParallelEvacMatchesSequential checks the copy engine's contract on a
// single-target flip: for every worker count the words/objects copied and
// the final Top are bit-identical to sequential (exact-fit reservation
// wastes nothing), the census multiset of copied objects is identical, and
// the object graph survives intact. In-target order is explicitly NOT part
// of the contract (workers race for reservations).
func TestParallelEvacMatchesSequential(t *testing.T) {
	const chains, chainLen = 32, 100
	h := New(WithConfig(Config{})) // the reference run is the sequential engine
	from := h.NewSpace("flip-A", 1<<16)
	to := h.NewSpace("flip-B", 1<<16)
	roots := buildForest(t, h, from, chains, chainLen)

	e := NewEvacuator(h, nil)
	flip := func() {
		e.SetFrom(from)
		e.Begin(to)
		e.Run()
		from.Reset()
		from, to = to, from
	}

	flip()
	wantWords, wantObjs, wantTop := e.WordsCopied, e.ObjectsCopied, from.Top
	wantCars := censusCars(h, from)

	for _, workers := range []int{1, 2, 4, 8} {
		h.cfg.Workers = workers
		flip()
		if e.WordsCopied != wantWords || e.ObjectsCopied != wantObjs {
			t.Errorf("workers=%d: copied %d words / %d objects, sequential copied %d / %d",
				workers, e.WordsCopied, e.ObjectsCopied, wantWords, wantObjs)
		}
		if from.Top != wantTop {
			t.Errorf("workers=%d: target Top %d, sequential %d (exact-fit reserve must not waste)",
				workers, from.Top, wantTop)
		}
		if got := censusCars(h, from); !equalInt64s(got, wantCars) {
			t.Errorf("workers=%d: census multiset diverges from sequential", workers)
		}
		for c, r := range roots {
			cars := chainCars(t, h, h.Get(r))
			if len(cars) != chainLen {
				t.Fatalf("workers=%d: chain %d has %d pairs, want %d", workers, c, len(cars), chainLen)
			}
			for i, v := range cars {
				if v != int64(chainLen-1-i) {
					t.Fatalf("workers=%d: chain %d car[%d] = %d, want %d", workers, c, i, v, chainLen-1-i)
				}
			}
		}
	}
	h.cfg.Workers = 0
}

// censusCars returns the sorted multiset of pair cars in a space — an
// order-independent census of its contents.
func censusCars(h *Heap, s *Space) []int64 {
	var cars []int64
	for off := 0; off < s.Top; {
		hdr := s.Mem[off]
		if HeaderType(hdr) == TPair {
			cars = append(cars, FixnumVal(s.Mem[off+1]))
		}
		off += ObjWords(hdr)
	}
	sort.Slice(cars, func(i, j int) bool { return cars[i] < cars[j] })
	return cars
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelEvacOverflowContention regression-tests the shared-cursor
// Overflow path: four workers race thousands of small reservations into
// tiny targets, forcing repeated Overflow growth mid-drain. Every object
// must be copied exactly once, nothing lost, the graph intact.
func TestParallelEvacOverflowContention(t *testing.T) {
	const chains, chainLen = 16, 64
	h := New()
	from := h.NewSpace("ov-from", 1<<14)
	roots := buildForest(t, h, from, chains, chainLen)

	// Two deliberately tiny primary targets so the drain overflows many
	// times; each Overflow space is itself small to keep the contention up.
	t0 := h.NewSpace("ov-t0", 64)
	t1 := h.NewSpace("ov-t1", 64)
	var grown []*Space
	overflow := func(need int) *Space {
		size := 128
		if need > size {
			size = need
		}
		ns := h.NewSpace("ov-spill", size)
		grown = append(grown, ns)
		return ns
	}

	e := NewEvacuator(h, nil)
	e.Overflow = overflow
	h.cfg.Workers = 4
	e.SetFrom(from)
	e.Begin(t0, t1)
	e.Run()
	h.cfg.Workers = 0

	wantObjs := chains * chainLen
	if e.ObjectsCopied != wantObjs {
		t.Fatalf("copied %d objects, want %d", e.ObjectsCopied, wantObjs)
	}
	if len(grown) == 0 {
		t.Fatal("Overflow never fired: the test must exercise growth under contention")
	}
	if len(e.Targets) != 2+len(grown) {
		t.Fatalf("Targets has %d entries, want primaries + %d overflow spaces", len(e.Targets), len(grown))
	}
	// Totals conservation: every copied word landed in exactly one target.
	var filled uint64
	for _, tg := range e.Targets {
		filled += uint64(tg.Top)
	}
	if filled != e.WordsCopied {
		t.Fatalf("targets hold %d words, engine copied %d (lost or duplicated copies)", filled, e.WordsCopied)
	}
	for c, r := range roots {
		cars := chainCars(t, h, h.Get(r))
		if len(cars) != chainLen {
			t.Fatalf("chain %d has %d pairs after overflow drain, want %d", c, len(cars), chainLen)
		}
	}
	from.Reset() // discard the evacuated space, as a collector would
	if err := Check(h); err != nil {
		t.Fatalf("heap check after contended overflow drain: %v", err)
	}
}

// TestEvacuatorOverflowOrderSequential pins the sequential engine's
// Overflow behaviour the parallel variant must echo: the failing target is
// kept, the fresh space is appended to Targets after validation, copies
// continue into it in Cheney order, and its gray region is drained.
func TestEvacuatorOverflowOrderSequential(t *testing.T) {
	const pairs = 40
	h := New(WithConfig(Config{})) // the reference run is the sequential engine
	from := h.NewSpace("seq-from", 1<<12)
	h.GlobalWord(buildChain(t, h, from, pairs))

	t0 := h.NewSpace("seq-t0", 30) // room for exactly 10 pairs
	var requests []int
	e := NewEvacuator(h, nil)
	e.Overflow = func(need int) *Space {
		requests = append(requests, need)
		return h.NewSpace("seq-spill", 3*pairs)
	}
	e.SetFrom(from)
	e.Begin(t0)
	e.Run()

	if len(requests) != 1 {
		t.Fatalf("Overflow fired %d times, want exactly once (one spill fits the rest)", len(requests))
	}
	if requests[0] != 3 {
		t.Fatalf("Overflow request was %d words, want 3 (one pair)", requests[0])
	}
	if len(e.Targets) != 2 || e.Targets[0] != t0 {
		t.Fatalf("Targets after overflow: got %d entries with first %q, want [seq-t0 seq-spill]",
			len(e.Targets), e.Targets[0].Name)
	}
	if t0.Top != 30 {
		t.Fatalf("first target filled to %d words, want 30 (first-fit packs it full)", t0.Top)
	}
	if e.Targets[1].Top != 3*(pairs-10) {
		t.Fatalf("spill holds %d words, want %d", e.Targets[1].Top, 3*(pairs-10))
	}
	// Cheney order: the spill continues the breadth-first copy, so cars
	// descend contiguously across the target boundary.
	seq := append(censusOrder(t0), censusOrder(e.Targets[1])...)
	for i, v := range seq {
		if v != int64(pairs-1-i) {
			t.Fatalf("copy order diverges at object %d: car %d, want %d", i, v, pairs-1-i)
		}
	}
}

// censusOrder returns pair cars in address order (no sort) — the copy order.
func censusOrder(s *Space) []int64 {
	var cars []int64
	for off := 0; off < s.Top; {
		hdr := s.Mem[off]
		if HeaderType(hdr) == TPair {
			cars = append(cars, FixnumVal(s.Mem[off+1]))
		}
		off += ObjWords(hdr)
	}
	return cars
}

// TestSpaceSetConcurrentReaders asserts the documented configure-then-drain
// contract: once a SpaceSet is built, concurrent Has/HasPtr readers are
// safe (pure loads, no mutation). Run under -race this fails if any read
// path writes.
func TestSpaceSetConcurrentReaders(t *testing.T) {
	h := New()
	a := h.NewSpace("ss-a", 64)
	b := h.NewSpace("ss-b", 64)
	c := h.NewSpace("ss-c", 64)

	var set SpaceSet
	set.Clear()
	set.Add(a.ID)
	set.Add(c.ID)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				if !set.Has(a.ID) || set.Has(b.ID) || !set.Has(c.ID) {
					t.Error("SpaceSet read returned wrong membership under concurrency")
					return
				}
				// Out-of-range IDs must stay safely absent.
				if set.Has(SpaceID(1000 + i%7)) {
					t.Error("SpaceSet reported membership beyond its backing")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelMarkSteadyStateZeroAllocs guards the workers=1 setting: it
// takes the sequential drain, never the goroutine engine, so steady-state
// drains allocate nothing.
func TestParallelMarkSteadyStateZeroAllocs(t *testing.T) {
	h := New()
	s := h.NewSpace("par-mark-arena", 4096)
	h.GlobalWord(buildChain(t, h, s, 500))
	h.cfg.Workers = 1

	m := NewMarker(h, nil)
	m.Run() // warmup: the mark stack grows once
	ClearMarks(s)

	allocs := testing.AllocsPerRun(20, func() {
		m.Begin()
		m.Run()
		ClearMarks(s)
	})
	if allocs != 0 {
		t.Errorf("steady-state mark at workers=1 allocates %.0f objects/run, want 0", allocs)
	}
	if m.ObjectsMarked != 500 {
		t.Fatalf("marked %d objects, want 500 (the guard must measure real work)", m.ObjectsMarked)
	}
}

// TestParallelEvacSteadyStateZeroAllocs guards the workers=1 setting of the
// evacuator the same way.
func TestParallelEvacSteadyStateZeroAllocs(t *testing.T) {
	h := New()
	from := h.NewSpace("par-flip-A", 4096)
	to := h.NewSpace("par-flip-B", 4096)
	h.GlobalWord(buildChain(t, h, from, 500))
	h.cfg.Workers = 1

	e := NewEvacuator(h, nil)
	flip := func() {
		e.SetFrom(from)
		e.Begin(to)
		e.Run()
		from.Reset()
		from, to = to, from
	}
	flip() // warmup

	allocs := testing.AllocsPerRun(20, flip)
	if allocs != 0 {
		t.Errorf("steady-state evacuation at workers=1 allocates %.0f objects/run, want 0", allocs)
	}
	if e.ObjectsCopied != 500 {
		t.Fatalf("copied %d objects, want 500 (the guard must measure real work)", e.ObjectsCopied)
	}
}

// benchForest sizes match the sequential steady-state benchmarks so the
// parallel rows are directly comparable.
func benchParallelMark(b *testing.B, workers int) {
	h := New()
	s := h.NewSpace("bench-forest", 1<<18)
	buildForest(b, h, s, 256, 96)
	h.cfg.Workers = workers

	m := NewMarker(h, nil)
	m.Run()
	ClearMarks(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Begin()
		m.Run()
		ClearMarks(s)
	}
	b.SetBytes(int64(m.WordsMarked) * 8)
}

func benchParallelEvac(b *testing.B, workers int) {
	h := New()
	from := h.NewSpace("bench-flip-A", 1<<18)
	to := h.NewSpace("bench-flip-B", 1<<18)
	buildForest(b, h, from, 256, 96)
	h.cfg.Workers = workers

	e := NewEvacuator(h, nil)
	flip := func() {
		e.SetFrom(from)
		e.Begin(to)
		e.Run()
		from.Reset()
		from, to = to, from
	}
	flip()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flip()
	}
	b.SetBytes(int64(e.WordsCopied) * 8)
}

// The 0 rows are the sequential engines on the same forest: the baseline
// the worker rows are read against (RDGC_GC_LAB=1 switches the evacuation
// rows to allocation buffers; it is inert at 0).
func BenchmarkParallelMark0(b *testing.B) { benchParallelMark(b, 0) }
func BenchmarkParallelMark2(b *testing.B) { benchParallelMark(b, 2) }
func BenchmarkParallelMark4(b *testing.B) { benchParallelMark(b, 4) }
func BenchmarkParallelEvac0(b *testing.B) { benchParallelEvac(b, 0) }
func BenchmarkParallelEvac2(b *testing.B) { benchParallelEvac(b, 2) }
func BenchmarkParallelEvac4(b *testing.B) { benchParallelEvac(b, 4) }
