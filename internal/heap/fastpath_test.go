package heap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Tests for the call-free forms of the step → allocate → minor-collection
// path: the root loops against VisitRoots with the slot functions, forward
// against the copy-and-reserve form it had, InitObject's store loop against
// a dirty arena.

// rootRig is a from-space of leaf pairs and a heap whose handle stack and
// globals name them in an order that shows in whatever walks the roots: odd
// pairs from the handle stack and even ones from the globals, each table
// salted with immediates, a repeat, and a pointer outside the region.
type rootRig struct {
	h             *Heap
	from, to, out *Space
}

func newRootRig(t testing.TB, pairs int) *rootRig {
	h := New(WithConfig(Config{}))
	r := &rootRig{
		h:    h,
		from: h.NewSpace("from", 3*pairs),
		to:   h.NewSpace("to", 3*pairs),
		out:  h.NewSpace("outside", 8),
	}
	outside := buildChain(t, h, r.out, 1)
	h.Scope()
	for i := 0; i < pairs; i++ {
		w := buildChain(t, h, r.from, 1)
		if i%2 == 1 {
			h.push(w)
			h.push(FixnumWord(int64(i)))
		} else {
			h.GlobalWord(w)
			h.GlobalWord(NullWord)
		}
		if i == pairs/2 {
			h.push(outside)
			h.GlobalWord(outside)
			h.GlobalWord(w)
		}
	}
	return r
}

// TestRootLoopsMatchVisitRoots: EvacuateRoots and MarkRoots leave what
// VisitRoots with the engine's slot function leaves — the same copies at the
// same addresses and the same slots, the same mark stack in the same order,
// the same counters — with the marker bounded and not.
func TestRootLoopsMatchVisitRoots(t *testing.T) {
	defer SetReferenceTracer(false)
	const pairs = 40

	evacuate := func(reference bool) (*rootRig, *Evacuator) {
		SetReferenceTracer(reference)
		r := newRootRig(t, pairs)
		e := NewEvacuator(r.h, nil, r.to)
		e.SetFrom(r.from)
		e.EvacuateRoots()
		return r, e
	}
	fast, fe := evacuate(false)
	ref, re := evacuate(true)
	if fe.ObjectsCopied != pairs || fe.WordsCopied != re.WordsCopied || fe.ObjectsCopied != re.ObjectsCopied {
		t.Errorf("EvacuateRoots copied %d objects (%d words), through VisitRoots %d (%d); the rig holds %d",
			fe.ObjectsCopied, fe.WordsCopied, re.ObjectsCopied, re.WordsCopied, pairs)
	}
	for _, cmp := range []struct {
		what      string
		fast, ref []Word
	}{
		{"to-space", fast.to.Mem[:fast.to.Top], ref.to.Mem[:ref.to.Top]},
		{"from-space", fast.from.Mem, ref.from.Mem},
		{"handle stack", fast.h.refs, ref.h.refs},
		{"globals", fast.h.globals, ref.h.globals},
	} {
		if !slices.Equal(cmp.fast, cmp.ref) {
			t.Errorf("EvacuateRoots: %s differs from what VisitRoots leaves", cmp.what)
		}
	}

	for _, bounded := range []bool{false, true} {
		mark := func(reference bool) *Marker {
			SetReferenceTracer(reference)
			r := newRootRig(t, pairs)
			m := NewMarker(r.h, nil)
			if bounded {
				m.SetRegion(r.from)
			}
			m.Begin()
			m.MarkRoots()
			return m
		}
		fm, rm := mark(false), mark(true)
		want := pairs + 1
		if bounded {
			want = pairs
		}
		if fm.ObjectsMarked != want || fm.ObjectsMarked != rm.ObjectsMarked || fm.WordsMarked != rm.WordsMarked {
			t.Errorf("bounded=%v: MarkRoots marked %d objects (%d words), through VisitRoots %d (%d), want %d",
				bounded, fm.ObjectsMarked, fm.WordsMarked, rm.ObjectsMarked, rm.WordsMarked, want)
		}
		if !slices.Equal(fm.stack, rm.stack) {
			t.Errorf("bounded=%v: MarkRoots queued the roots in another order than VisitRoots", bounded)
		}
	}
}

// TestRootLoopsAllocateNothing: a root scan is two loops over two slices.
func TestRootLoopsAllocateNothing(t *testing.T) {
	const pairs = 40
	r := newRootRig(t, pairs)
	e := NewEvacuator(r.h, nil)
	from, to := r.from, r.to
	flip := func() {
		e.SetFrom(from)
		e.Begin(to)
		e.EvacuateRoots()
		from.Reset()
		from, to = to, from
	}
	flip()
	if allocs := testing.AllocsPerRun(20, flip); allocs != 0 {
		t.Errorf("EvacuateRoots allocates %.0f objects/run, want 0", allocs)
	}
	if e.ObjectsCopied != pairs {
		t.Fatalf("copied %d objects, want %d (the guard must measure real work)", e.ObjectsCopied, pairs)
	}

	m := NewMarker(r.h, nil)
	cycle := func() {
		m.Begin()
		m.MarkRoots()
		m.Drain()
		ClearMarks(from, r.out)
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("MarkRoots allocates %.0f objects/run, want 0", allocs)
	}
	if m.ObjectsMarked != pairs+1 {
		t.Fatalf("marked %d objects, want %d (the guard must measure real work)", m.ObjectsMarked, pairs+1)
	}
}

// reserveReference is reserve as it stood before the first-fit cursor:
// every request tries the targets from the first, and Overflow is asked only
// when all of them refuse.
func (e *Evacuator) reserveReference(n int) (*Space, int) {
	for _, t := range e.Targets {
		if off, ok := t.Bump(n); ok {
			return t, off
		}
	}
	if e.Overflow != nil {
		t := e.Overflow(n)
		if t == nil {
			panic(fmt.Sprintf("heap: evacuation overflow: Overflow returned nil for a %d-word request", n))
		}
		if t.Free() < n {
			panic(fmt.Sprintf("heap: evacuation overflow: Overflow returned space %q with %d free words, too small for %d",
				t.Name, t.Free(), n))
		}
		e.Targets = append(e.Targets, t)
		e.scanBase = append(e.scanBase, t.Top)
		e.scan = append(e.scan, t.Top)
		e.spaces = e.H.Spaces
		off, _ := t.Bump(n)
		return t, off
	}
	panic(fmt.Sprintf("heap: evacuation overflow: no target space has %d free words", n))
}

// forwardReference is forward as it stood before it bumped a target itself
// and copied pairs with three stores: every reservation through
// reserveReference's linear first-fit, every copy through copy.
func (e *Evacuator) forwardReference(w Word) Word {
	s := e.spaces[PtrSpace(w)]
	off := PtrOff(w)
	hdr := s.Mem[off]
	if IsPtr(hdr) {
		return hdr
	}
	n := ObjWords(hdr)
	var toSpace *Space
	var toOff int
	if e.tenured {
		toSpace, toOff = e.reserveByAge(s, off, hdr, n)
	}
	if toSpace == nil {
		toSpace, toOff = e.reserveReference(n)
	}
	copy(toSpace.Mem[toOff:toOff+n], s.Mem[off:off+n])
	fwd := PtrWord(toSpace.ID, toOff)
	s.Mem[off] = fwd
	e.WordsCopied += uint64(n)
	e.ObjectsCopied++
	if id, ok := e.H.IDOf(w); ok {
		s.ids[off], toSpace.ids[toOff] = 0, uint32(id)+1
		if e.H.addrs != nil {
			e.H.addrs[id] = fwd
		}
	}
	return fwd
}

// TestForwardMatchesReference: objects of one to four words and of 300,
// forwarded one by one (and once more, through their forwarding words) on
// twin heaps, land at the same addresses holding the same words under
// forward and under forwardReference — with room in the first target, with
// the first target full, filled exactly by the first copies, and absent
// with Overflow supplying every space; with a hole in the first target that
// refuses the first object and takes the second exactly, after the cursor
// has moved on; over five targets whose holes later copies go back to; and
// over two small targets that Overflow extends mid-run once both have
// refused; census on and off; wholesale and age-routed, where every other
// object is old enough to be promoted; and with the identity table on, where
// both halves of it must match too.
func TestForwardMatchesReference(t *testing.T) {
	sizes := []int{3, 1, 2, 3, 4, 300, 3, 2, 300, 4, 1, 3}
	type rig struct {
		h     *Heap
		e     *Evacuator
		slots []Word
	}
	for _, census := range []bool{false, true} {
		var opts []Option
		if census {
			opts = append(opts, WithCensus())
		}
		var objs []int // the sizes this heap can form: a census object is two words at least
		total := 0
		for _, n := range sizes {
			if n >= 1+len(opts) {
				objs = append(objs, n)
				total += n
			}
		}
		for _, targets := range []string{"room", "first full", "first exactly filled", "overflow only",
			"hole in the first", "holes in many", "overflow mid-run"} {
			// identity: 0 off, 1 the address -> ordinal half alone (a recording
			// heap's), 2 both halves (a replaying heap's).
			for _, mode := range []struct {
				tenured  bool
				identity int
			}{{false, 0}, {true, 0}, {false, 1}, {true, 1}, {false, 2}, {true, 2}} {
				tenured := mode.tenured
				build := func() *rig {
					h := New(append(opts, WithConfig(Config{}))...)
					r := &rig{h: h}
					from := h.NewSpace("from", total)
					if mode.identity > 0 {
						h.TrackIdentity()
					}
					if mode.identity > 1 {
						h.AddrOf(0)
					}
					for i, n := range objs {
						off, _ := from.Bump(n)
						payload := n - 1 - h.ExtraWords()
						r.slots = append(r.slots, h.InitObject(from, off, TVector, payload))
						for j := range h.Payload(r.slots[i]) {
							h.Payload(r.slots[i])[j] = FixnumWord(int64(1000*i + j))
						}
						from.Mem[off] = WithHeaderAge(from.Mem[off], i%2)
					}
					first := h.NewSpace("first", total)
					second := h.NewSpace("second", total)
					switch targets {
					case "first full":
						first.Top = first.Cap()
					case "first exactly filled":
						first.Top = first.Cap() - objs[0] - objs[1]
					case "hole in the first":
						// objs[0] is larger than objs[1]: the hole refuses the
						// first copy, which moves the cursor to second, and
						// takes the next one exactly.
						first.Top = first.Cap() - objs[1]
					}
					r.e = NewEvacuator(h, nil)
					r.e.SetFrom(from)
					old := []*Space{first, second}
					overflow := func(need int) *Space {
						return h.NewSpace(fmt.Sprintf("overflow-%d", len(h.Spaces)), max(need, 16))
					}
					switch targets {
					case "overflow only":
						old = nil
						r.e.Overflow = overflow
					case "holes in many":
						// The cursor passes each of the first four, each
						// leaving a hole some later, smaller object goes back to.
						old = []*Space{h.NewSpace("t0", objs[1]), h.NewSpace("t1", 5), h.NewSpace("t2", 4),
							h.NewSpace("t3", 301), second}
					case "overflow mid-run":
						old = []*Space{h.NewSpace("small-0", 4), h.NewSpace("small-1", 5)}
						r.e.Overflow = overflow
					}
					if tenured {
						shadow := h.NewSpace("shadow", 2*objs[0])
						r.e.BeginTenured(2, []*Space{shadow}, old...)
					} else {
						r.e.Begin(old...)
					}
					return r
				}
				name := fmt.Sprintf("census=%v/%s/tenured=%v/identity=%v", census, targets, tenured, mode.identity)
				fast, ref := build(), build()
				for round := 0; round < 2; round++ {
					for i, w := range fast.slots {
						if got, want := fast.e.forward(w), ref.e.forwardReference(w); got != want {
							t.Errorf("%s: round %d: object %d forwarded to %#x, the reference's to %#x",
								name, round, i, uint64(got), uint64(want))
						}
					}
				}
				fe, re := fast.e, ref.e
				if fe.ObjectsCopied != len(objs) || fe.WordsCopied != uint64(total) {
					t.Errorf("%s: copied %d objects, %d words, want %d, %d", name, fe.ObjectsCopied, fe.WordsCopied, len(objs), total)
				}
				if fe.ObjectsCopied != re.ObjectsCopied || fe.WordsCopied != re.WordsCopied ||
					fe.WordsPromoted != re.WordsPromoted || fe.WordsRetained != re.WordsRetained {
					t.Errorf("%s: counters differ from the reference's", name)
				}
				if len(fast.h.Spaces) != len(ref.h.Spaces) || len(fe.Targets) != len(re.Targets) {
					t.Fatalf("%s: %d spaces and %d targets, the reference %d and %d", name,
						len(fast.h.Spaces), len(fe.Targets), len(ref.h.Spaces), len(re.Targets))
				}
				for i, s := range fast.h.Spaces {
					o := ref.h.Spaces[i]
					// Whole arenas, not just the words below Top: a copy must
					// not write past its object either.
					if s.Top != o.Top || !slices.Equal(s.Mem, o.Mem) || !slices.Equal(s.ids, o.ids) || (s.ids != nil) != (mode.identity > 0) {
						t.Errorf("%s: %v differs from the reference's %v", name, s, o)
					}
				}
				if !slices.Equal(fast.h.addrs, ref.h.addrs) || len(fast.h.addrs) != []int{0, 0, len(objs)}[mode.identity] {
					t.Errorf("%s: ordinal -> address halves differ, or hold %d entries for %d objects", name, len(fast.h.addrs), len(objs))
				}
				for i, w := range fast.slots {
					// The slots still hold the from-addresses: what each object's
					// forwarding word says is where its identity must now be.
					fwd := fast.h.Header(w)
					if id, ok := fast.h.IDOf(fwd); ok != (mode.identity > 0) || (ok && id != uint64(i)) {
						t.Errorf("%s: object %d at %#x resolves to #%d, %v", name, i, uint64(fwd), id, ok)
					}
					if _, ok := fast.h.IDOf(w); ok {
						t.Errorf("%s: the address object %d moved away from still resolves", name, i)
					}
				}
			}
		}
	}
}

// drainWithForwardReference runs a whole evacuation the way the engine did
// before cheney copied in line: the roots through VisitRoots, every gray
// object through ScanObject, every slot through forwardReference — so every
// reservation through linear first-fit and every identity entry through
// IDOf — in Drain's pass order (the targets a pass began with, then on a
// tenured run the survivor targets).
func (e *Evacuator) drainWithForwardReference() {
	visit := func(slot *Word) {
		if w := *slot; IsPtr(w) && e.from.HasPtr(w) {
			*slot = e.forwardReference(w)
		}
	}
	e.H.VisitRoots(visit)
	for {
		progress := false
		for i, nT := 0, len(e.Targets); i < nT; i++ {
			t := e.Targets[i]
			for e.scan[i] < t.Top {
				progress = true
				off := e.scan[i]
				ScanObject(t, off, visit)
				e.scan[i] = off + ObjWords(t.Mem[off])
			}
		}
		if e.tenured {
			ten := e.ten
			for i, y := range ten.young {
				for ten.youngScan[i] < y.Top {
					progress = true
					off := ten.youngScan[i]
					ScanObject(y, off, visit)
					ten.youngScan[i] = off + ObjWords(y.Mem[off])
				}
			}
		}
		if !progress {
			return
		}
	}
}

// newDrainRig builds a heap whose from-space holds a random graph of 400
// objects of mixed sizes — pairs, vectors of one to forty words and one of
// 200, flonums and bytevectors whose raw words look like pointers — reached
// from the handle stack and the globals, and an evacuator armed with
// targets none of which can hold the survivors alone: five of uneven size
// (one of two words), or three that Overflow extends with spaces of a sixth
// of the from-space; on a tenured run, two survivor targets as well, and
// headers aged 0 to 2 under threshold 2. The evacuator has run once
// before. identity is as in TestForwardMatchesReference.
func newDrainRig(t *testing.T, seed int64, census bool, identity int, spill string, tenured bool) *Evacuator {
	var opts []Option
	if census {
		opts = append(opts, WithCensus())
	}
	h := New(append(opts, WithConfig(Config{}))...)
	rng := rand.New(rand.NewSource(seed))
	from := h.NewSpace("from", 1<<14)
	outside := h.NewSpace("outside", 64)
	if identity > 0 {
		h.TrackIdentity()
	}
	if identity > 1 {
		h.AddrOf(0)
	}
	out := buildChain(t, h, outside, 4)
	var objs []Word
	for i := 0; i < 400; i++ {
		typ, payload := TPair, 2
		switch r := rng.Intn(10); {
		case i == 200:
			typ, payload = TVector, 200
		case r < 5:
		case r < 7:
			typ, payload = TVector, 1+rng.Intn(40)
		case r == 7:
			typ, payload = TFlonum, 1
		case r == 8:
			typ, payload = TBytevec, 1+rng.Intn(4)
		default:
			typ, payload = TVector, 1+rng.Intn(6)
		}
		off, ok := from.Bump(1 + h.ExtraWords() + payload)
		if !ok {
			t.Fatal("rig: from-space too small")
		}
		objs = append(objs, h.InitObject(from, off, typ, payload))
		if tenured {
			from.Mem[off] = WithHeaderAge(from.Mem[off], rng.Intn(3))
		}
	}
	for _, w := range objs {
		p := h.Payload(w)
		for j := range p {
			switch r := rng.Intn(10); {
			case RawPayload(HeaderType(h.Header(w))) || r < 6:
				p[j] = objs[rng.Intn(len(objs))]
			case r < 8:
				p[j] = FixnumWord(int64(r))
			case r == 8:
				p[j] = NullWord
			default:
				p[j] = out
			}
		}
	}
	h.Scope()
	for i := 0; i < 12; i++ {
		h.push(objs[rng.Intn(len(objs))])
		h.GlobalWord(objs[rng.Intn(len(objs))])
	}
	h.push(FixnumWord(7))
	h.GlobalWord(out)

	e := NewEvacuator(h, nil)
	// An earlier run leaves the cursor past its first target: Begin must
	// reset it.
	e.Begin(h.NewSpace("earlier-0", 1), h.NewSpace("earlier-1", 8))
	e.reserve(4)
	e.SetFrom(from)
	var old []*Space
	sixth := from.Top / 6
	switch spill {
	case "targets":
		old = []*Space{h.NewSpace("t0", from.Top/4), h.NewSpace("t1", 2), h.NewSpace("t2", from.Top/5),
			h.NewSpace("t3", 7), h.NewSpace("t4", from.Top)}
	case "overflow":
		old = []*Space{h.NewSpace("t0", from.Top/4), h.NewSpace("t1", 2), h.NewSpace("t2", from.Top/5)}
		e.Overflow = func(need int) *Space {
			return h.NewSpace(fmt.Sprintf("overflow-%d", len(h.Spaces)), max(need, sixth))
		}
	}
	if tenured {
		e.BeginTenured(2, []*Space{h.NewSpace("shadow-0", sixth), h.NewSpace("shadow-1", 5)}, old...)
	} else {
		e.Begin(old...)
	}
	return e
}

// TestDrainMatchesReference: a whole evacuation — root loops, the Cheney
// scan with its in-line copy, the first-fit cursor, Overflow spill, age
// routing — leaves, on twin heaps, what drainWithForwardReference leaves:
// every space's words and identity entries, the ordinal -> address half, the
// roots, the counters. The rig spreads the survivors over at least three
// targets, census on and off, identity off, recording and replaying, and
// wholesale and tenured.
func TestDrainMatchesReference(t *testing.T) {
	for _, census := range []bool{false, true} {
		for identity := 0; identity <= 2; identity++ {
			for _, spill := range []string{"targets", "overflow"} {
				for _, tenured := range []bool{false, true} {
					for seed := int64(1); seed <= 2; seed++ {
						name := fmt.Sprintf("census=%v/identity=%d/%s/tenured=%v/seed%d", census, identity, spill, tenured, seed)
						fast, ref := newDrainRig(t, seed, census, identity, spill, tenured), newDrainRig(t, seed, census, identity, spill, tenured)
						targets := len(fast.Targets)
						fast.EvacuateRoots()
						fast.Drain()
						ref.drainWithForwardReference()
						compareDrains(t, name, fast, ref)

						filled := 0
						fast.CopiedRegions(func(*Space, int, int) { filled++ })
						if filled < 3 || (spill == "overflow") != (len(fast.Targets) > targets) {
							t.Errorf("%s: copies filled %d targets, %d of them from Overflow: the rig must spread them", name, filled, len(fast.Targets)-targets)
						}
						if tenured && (fast.WordsRetained == 0 || fast.WordsPromoted == 0) {
							t.Errorf("%s: retained %d words and promoted %d: the rig must do both", name, fast.WordsRetained, fast.WordsPromoted)
						}
					}
				}
			}
		}
	}
}

func compareDrains(t *testing.T, name string, fast, ref *Evacuator) {
	t.Helper()
	if fast.ObjectsCopied != ref.ObjectsCopied || fast.WordsCopied != ref.WordsCopied ||
		fast.WordsPromoted != ref.WordsPromoted || fast.WordsRetained != ref.WordsRetained {
		t.Errorf("%s: copied %d objects, %d words (%d promoted, %d retained); the reference %d, %d (%d, %d)", name,
			fast.ObjectsCopied, fast.WordsCopied, fast.WordsPromoted, fast.WordsRetained,
			ref.ObjectsCopied, ref.WordsCopied, ref.WordsPromoted, ref.WordsRetained)
	}
	fh, rh := fast.H, ref.H
	if len(fh.Spaces) != len(rh.Spaces) || len(fast.Targets) != len(ref.Targets) {
		t.Fatalf("%s: %d spaces and %d targets, the reference %d and %d", name,
			len(fh.Spaces), len(fast.Targets), len(rh.Spaces), len(ref.Targets))
	}
	for i, s := range fh.Spaces {
		o := rh.Spaces[i]
		if s.Top != o.Top || !slices.Equal(s.Mem, o.Mem) || !slices.Equal(s.ids, o.ids) {
			t.Errorf("%s: %v differs from the reference's %v", name, s, o)
		}
	}
	if !slices.Equal(fh.addrs, rh.addrs) || !slices.Equal(fh.refs, rh.refs) || !slices.Equal(fh.globals, rh.globals) {
		t.Errorf("%s: the ordinal -> address half or the roots differ from the reference's", name)
	}
	if fast.tenured && (fast.ten.survByAge != ref.ten.survByAge || fast.ten.retainedByAge != ref.ten.retainedByAge) {
		t.Errorf("%s: survival counters differ from the reference's", name)
	}
}

// TestInitObjectZeroesPayload: whatever the arena held, a new object's
// payload reads zero, short payloads (cleared by stores) and long ones
// (cleared by clear) alike; the header and the census stamp are in place and
// the word past the object is not touched.
func TestInitObjectZeroesPayload(t *testing.T) {
	const dirt = Word(0xdeadbeefdeadbeef)
	for _, census := range []bool{false, true} {
		var opts []Option
		if census {
			opts = append(opts, WithCensus())
		}
		h := New(opts...)
		s := h.NewSpace("arena", 1024)
		for _, payload := range []int{0, 1, 2, 3, 4, 5, 6, 300} {
			for i := range s.Mem {
				s.Mem[i] = dirt
			}
			s.Reset()
			born := h.Stats.WordsAllocated
			total := 1 + h.ExtraWords() + payload
			off, _ := s.Bump(7) // not at the arena's edge
			off, _ = s.Bump(total)
			w := h.InitObject(s, off, TVector, payload)
			if w != PtrWord(s.ID, off) || s.Mem[off] != HeaderWord(TVector, payload+h.ExtraWords()) {
				t.Fatalf("census=%v payload %d: wrong pointer or header", census, payload)
			}
			if census && h.BirthStamp(w) != born {
				t.Errorf("payload %d: birth stamp %d, want %d", payload, h.BirthStamp(w), born)
			}
			if p := h.Payload(w); len(p) != payload || slices.ContainsFunc(p, func(v Word) bool { return v != 0 }) {
				t.Errorf("census=%v payload %d: payload of %d words not all zero", census, payload, len(p))
			}
			if s.Mem[off-1] != dirt || s.Mem[off+total] != dirt {
				t.Errorf("census=%v payload %d: InitObject wrote outside the object", census, payload)
			}
			if h.Stats.WordsAllocated != born+uint64(total) {
				t.Errorf("census=%v payload %d: clock advanced %d words, want %d", census, payload, h.Stats.WordsAllocated-born, total)
			}
		}
	}
}
