package trace

// Trace synthesis: operators that manufacture large, realistic corpora
// from a handful of recorded traces. Interleave merges K traces as
// independent mutator sessions on one heap; Amplify is an N-fold
// self-interleave. All outputs are ordinary traces —
// replayable by any collector, splittable back into their inputs — and
// all operators are fully deterministic, so a synthesized corpus can be
// regenerated byte-for-byte from its recipe.
//
// Correctness hinges on two namespace rules. Object IDs and global-root
// indices are session-local in the inputs but shared in the merged
// output, so every event is rewritten through per-session remap tables
// (allocation order assigns merged IDs; KindGlobal AND KindIntern both
// append to the heap's global table, so both advance the global map).
// Handle-stack state, by contrast, is NOT remapped: Interleave switches
// sessions only at quiescent points — positions where the outgoing
// session's handle-stack depth is zero — so positive refs and PopTo
// depths stay absolute in both the merged trace and any split of it.
// Objects a session touches after a switch are global-reachable by
// construction (its persistent roots live in the global table), so they
// survive collections triggered during other sessions' turns.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// defaultChunk is the minimum number of events a session runs per turn
// when SynthOptions.Chunk is zero.
const defaultChunk = 64

// SynthOptions tunes the synthesis operators.
type SynthOptions struct {
	// Compress enables per-block compression of the output trace.
	Compress bool
	// Seed selects a deterministic pseudo-random session schedule for
	// Interleave and Amplify; zero means strict round-robin.
	Seed uint64
	// Chunk is the minimum number of events a session emits per turn
	// before the scheduler may switch away (the switch itself always
	// waits for the session's next quiescent point). Zero means
	// defaultChunk (64).
	Chunk int
}

// xrng is a self-contained xorshift64 so schedules never depend on
// math/rand's sequence (which may change between Go releases). The seed
// must be nonzero.
type xrng uint64

func (r *xrng) next() uint64 {
	x := *r
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = x
	return uint64(x)
}

// saltPrefix is the symbol-name salt for a merged session: interning is
// globally unique per heap, so two sessions interning the same name must
// diverge in the merged trace. Split strips the prefix again.
func saltPrefix(sess int) string { return "s" + strconv.Itoa(sess) + ":" }

// feedChunkEvents is the number of decoded events one feed chunk holds.
const feedChunkEvents = 1024

// feedChunk is a run of events decoded once from an input and read by every
// session that replays it.
type feedChunk struct {
	evs     []Event
	err     error      // what ends evs short of feedChunkEvents: io.EOF, or the decode error at that position
	next    *feedChunk // the chunk decoded after this one; nil until a session reaches the end of this one
	readers int        // sessions that have not yet passed this chunk
}

// feed decodes one input once for all the sessions that replay it. Its
// live chunks run from the slowest session's to the fastest's; a chunk
// every session has passed goes back on the free list, so a feed holds
// the spread between its sessions, not a decode per session.
type feed struct {
	rd       *Reader
	sessions int        // sessions reading the feed, each chunk's starting readers
	head     *feedChunk // the first chunk, where every session starts
	free     []*feedChunk
}

func newFeed(rd *Reader, sessions int) *feed {
	f := &feed{rd: rd, sessions: sessions}
	f.head = f.decode()
	return f
}

// decode fills a chunk with the input's next events, stopping early at the
// reader's first error, which the chunk keeps at that position.
func (f *feed) decode() *feedChunk {
	var c *feedChunk
	if n := len(f.free); n > 0 {
		c, f.free = f.free[n-1], f.free[:n-1]
		*c = feedChunk{evs: c.evs}
	} else {
		c = &feedChunk{evs: make([]Event, feedChunkEvents)}
	}
	c.readers = f.sessions
	evs := c.evs[:feedChunkEvents]
	n := 0
	for n < len(evs) {
		if c.err = f.rd.Next(&evs[n]); c.err != nil {
			break
		}
		n++
	}
	c.evs = evs[:n]
	return c
}

// pass moves a session off chunk c: it returns the chunk after c, decoding
// it for the first session to get there, and frees c once the last session
// has passed it.
func (f *feed) pass(c *feedChunk) *feedChunk {
	if c.next == nil {
		c.next = f.decode()
	}
	next := c.next
	if c.readers--; c.readers == 0 {
		f.free = append(f.free, c)
	}
	return next
}

// synthSource is one merged session reading an input through its feed,
// with its rebasing state.
type synthSource struct {
	f        *feed
	ck       *feedChunk // the feed chunk holding the lookahead
	i        int        // the lookahead's index in ck.evs
	ev       *Event     // lookahead event, valid while !eof; shared with the feed's other sessions, so never written
	base     int        // merged index of the first session this source carries
	sessions int        // sessions the input carries (1 unless it is marked)
	marked   bool       // input already carries KindSession markers
	cursess  int        // merged session of the events currently streaming
	ids      idMap      // local allocation index -> merged object ID
	gmap     []int      // local global index -> merged global index
	depth    int        // local handle-stack depth after the last event
	atSafe   bool       // the last event ended a quiescent window (see turn)
	eof      bool
}

// advance moves the lookahead to the input's next event. A decode error
// reaches the session only at the position where the input failed.
func (s *synthSource) advance() error {
	s.i++
	for s.i == len(s.ck.evs) {
		if err := s.ck.err; err != nil {
			if err == io.EOF { // Next returns it bare
				s.eof = true
				return nil
			}
			return err
		}
		s.ck, s.i = s.f.pass(s.ck), 0
	}
	s.ev = &s.ck.evs[s.i]
	return nil
}

// merger rewrites source events into the merged namespace and tracks the
// aggregate trailer.
type merger struct {
	w        *Writer
	salt     bool
	globals  int // merged global-root count so far
	lastSess int // session of the last emitted marker (-1 before any)
	extra    uint64
	words    uint64
	objects  uint64
}

// marker emits a session marker unless the stream is already attributed
// to sess.
func (m *merger) marker(sess int) error {
	if m.lastSess == sess {
		return nil
	}
	if err := m.w.session(sess); err != nil {
		return err
	}
	m.lastSess = sess
	return nil
}

// idPageBits sizes an idMap page: 256 IDs, 2 KiB, so a thousand sessions
// of a short base hold a few megabytes of maps.
const (
	idPageBits = 8
	idPageLen  = 1 << idPageBits
)

// idMap maps a session's local allocation indices to merged object IDs. It
// grows a page at a time and never copies one: the append doubling it
// replaced copied every ID on each growth and left the old arrays behind,
// most of what a 16-session Amplify allocated.
type idMap struct {
	pages []*[idPageLen]uint64
	n     uint64 // IDs added
}

func (m *idMap) add(id uint64) {
	if m.n%idPageLen == 0 {
		m.pages = append(m.pages, new([idPageLen]uint64))
	}
	m.pages[m.n>>idPageBits][m.n%idPageLen] = id
	m.n++
}

// remap maps a session-local object ID into the merged namespace. It is
// false for an object the session has not allocated.
func (s *synthSource) remap(id uint64) (uint64, bool) {
	if id >= s.ids.n {
		return 0, false
	}
	return s.ids.pages[id>>idPageBits][id%idPageLen], true
}

// remapVal is remap for an operand, which may not name an object at all.
func (s *synthSource) remapVal(v Value) (Value, bool) {
	if !v.IsObj {
		return v, true
	}
	bits, ok := s.remap(v.Bits)
	return Value{IsObj: true, Bits: bits}, ok
}

//go:noinline
func errUnallocated(id uint64) error {
	return fmt.Errorf("%w: synth: reference to unallocated object #%d", ErrInvalid, id)
}

// emit rewrites s's lookahead event into the merged namespace and hands it
// to its kind's encoder. The lookahead is shared with the other sessions
// reading the same input, so it is read through the pointer and the
// remapped operands live in locals; no Event is copied, and the kind is
// dispatched on once.
func (m *merger) emit(s *synthSource) error {
	ev, w := s.ev, m.w
	var err error
	switch ev.Kind {
	case KindAlloc:
		var id uint64
		if id, err = w.alloc(ev.Type, ev.Size); err == nil {
			s.ids.add(id)
			m.objects++
			m.words += 1 + uint64(ev.Size) + m.extra
		}
	case KindStore:
		obj, ok := s.remap(ev.Obj)
		if !ok {
			return errUnallocated(ev.Obj)
		}
		val, ok := s.remapVal(ev.Val)
		if !ok {
			return errUnallocated(ev.Val.Bits)
		}
		err = w.store(obj, ev.Slot, val)
	case KindFill:
		obj, ok := s.remap(ev.Obj)
		if !ok {
			return errUnallocated(ev.Obj)
		}
		val, ok := s.remapVal(ev.Val)
		if !ok {
			return errUnallocated(ev.Val.Bits)
		}
		err = w.fill(obj, val)
	case KindRaw:
		obj, ok := s.remap(ev.Obj)
		if !ok {
			return errUnallocated(ev.Obj)
		}
		err = w.raw(obj, ev.Slot, ev.Val.Bits)
	case KindIntern:
		obj, ok := s.remap(ev.Obj)
		if !ok {
			return errUnallocated(ev.Obj)
		}
		s.gmap = append(s.gmap, m.globals)
		m.globals++
		name := ev.Name
		if m.salt {
			name = saltPrefix(s.cursess) + name
		}
		err = w.intern(obj, name)
	case KindPush:
		val, ok := s.remapVal(ev.Val)
		if !ok {
			return errUnallocated(ev.Val.Bits)
		}
		s.depth++
		err = w.root(KindPush, val)
	case KindGlobal:
		val, ok := s.remapVal(ev.Val)
		if !ok {
			return errUnallocated(ev.Val.Bits)
		}
		s.gmap = append(s.gmap, m.globals)
		m.globals++
		err = w.root(KindGlobal, val)
	case KindPopTo:
		s.depth = ev.Size
		err = w.popTo(ev.Size)
	case KindSet:
		ref := ev.Ref
		if ref <= -2 {
			g := int(-ref) - 2
			if g >= len(s.gmap) {
				return fmt.Errorf("%w: synth: global ref g%d before its creation", ErrInvalid, g)
			}
			ref = int32(-s.gmap[g] - 2)
		}
		val, ok := s.remapVal(ev.Val)
		if !ok {
			return errUnallocated(ev.Val.Bits)
		}
		err = w.set(ref, val)
	case KindCollect:
		err = w.collect(ev.Full)
	case KindSession:
		s.cursess = ev.Size + s.base
		m.lastSess = s.cursess
		err = w.session(s.cursess)
	default:
		err = w.Append(ev) // refuses the unknown kind
	}
	if err != nil {
		return err
	}
	// A quiescent point is where everything the session can still name is
	// reachable from its global roots: right after a scope close back to
	// depth zero, or right after a collection at depth zero (which proved
	// nothing floating survived). Depth zero alone is NOT enough — an
	// allocation's rooting push may still be pending (e.g. a flonum's
	// alloc+raw precede the push that roots it), and a collection injected
	// there by another session would reclaim the object out from under it.
	s.atSafe = (ev.Kind == KindPopTo && s.depth == 0) ||
		(ev.Kind == KindCollect && s.depth == 0) ||
		ev.Kind == KindSession
	return nil
}

// turn runs one scheduling turn of s: at least chunk events, extended to
// the session's next quiescent point (a scope-close or collection at
// depth zero for a plain input, the next session marker for a marked
// one).
func (m *merger) turn(s *synthSource, chunk int) error {
	if !s.marked {
		if err := m.marker(s.base); err != nil {
			return err
		}
	}
	count := 0
	for !s.eof {
		if count >= chunk {
			if s.marked && s.ev.Kind == KindSession {
				break
			}
			if !s.marked && s.atSafe {
				break
			}
		}
		if err := m.emit(s); err != nil {
			return err
		}
		count++
		if err := s.advance(); err != nil {
			return err
		}
	}
	return nil
}

// finish cross-checks the synthesized totals against the input trailers
// and closes the output.
func (m *merger) finish(srcs []*synthSource) (Trailer, error) {
	var words, objects uint64
	for _, s := range srcs {
		t := s.f.rd.Trailer()
		words += t.WordsAllocated
		objects += t.ObjectsAllocated
	}
	if words != m.words || objects != m.objects {
		return Trailer{}, fmt.Errorf("%w: synthesized %d words / %d objects, inputs recorded %d / %d",
			ErrDrift, m.words, m.objects, words, objects)
	}
	tr := Trailer{WordsAllocated: m.words, ObjectsAllocated: m.objects, Events: m.w.Events()}
	if err := m.w.Close(tr); err != nil {
		return Trailer{}, err
	}
	return tr, nil
}

// prepSources validates the inputs, opens one feed per input with copies
// sessions reading it, assigns session bases, and builds the merged
// header. Inputs must share a census mode and be freshly opened.
func prepSources(inputs []*Reader, copies int, op string, opt SynthOptions) ([]*synthSource, Header, error) {
	if len(inputs) == 0 {
		return nil, Header{}, fmt.Errorf("%w: synth: no inputs", ErrInvalid)
	}
	census := inputs[0].Header().Census
	srcs := make([]*synthSource, 0, len(inputs)*copies)
	base := 0
	heapWords, haveHW := 0, true
	sameMeta := true
	for i, rd := range inputs {
		// A feed decodes ahead of its sessions, so a Reader passed twice
		// has been read by the time it comes round again.
		if rd.Events() != 0 {
			return nil, Header{}, fmt.Errorf("%w: synth: input %d already partially read", ErrInvalid, i)
		}
		hdr := rd.Header()
		if hdr.Census != census {
			return nil, Header{}, fmt.Errorf("%w: synth: input %d census=%v, input 0 census=%v",
				ErrInvalid, i, hdr.Census, census)
		}
		if !metaEqual(hdr.Meta, inputs[0].Header().Meta) {
			sameMeta = false
		}
		sessions := 1
		if v, ok := hdr.Lookup("sessions"); ok {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				sessions = n
			}
		}
		if v, ok := hdr.Lookup("heap_words"); ok && haveHW {
			n, err := strconv.Atoi(v)
			if err != nil {
				haveHW = false
			} else {
				heapWords += n * copies
			}
		} else {
			haveHW = false
		}
		f := newFeed(rd, copies)
		for range copies {
			s := &synthSource{f: f, ck: f.head, i: -1, base: base, sessions: sessions, cursess: base}
			if err := s.advance(); err != nil {
				return nil, Header{}, err
			}
			s.marked = !s.eof && s.ev.Kind == KindSession
			base += sessions
			srcs = append(srcs, s)
		}
	}
	hdr := Header{Census: census}
	hdr.Meta = append(hdr.Meta,
		MetaEntry{Key: "synth", Value: op},
		MetaEntry{Key: "sessions", Value: strconv.Itoa(base)})
	if len(srcs) > 1 {
		hdr.Meta = append(hdr.Meta, MetaEntry{Key: "synth_salt", Value: "1"})
	}
	if opt.Seed != 0 {
		hdr.Meta = append(hdr.Meta, MetaEntry{Key: "seed", Value: strconv.FormatUint(opt.Seed, 10)})
	}
	if haveHW {
		hdr.Meta = append(hdr.Meta, MetaEntry{Key: "heap_words", Value: strconv.Itoa(heapWords)})
	}
	// Per-session provenance, so Split can restore each input's header.
	// When every input is identical (Amplify), one shared "s*:" copy
	// stands in for all of them; a 10k-fold amplification must not carry
	// 10k copies of the same metadata.
	if sameMeta {
		for _, e := range inputs[0].Header().Meta {
			hdr.Meta = append(hdr.Meta, MetaEntry{Key: "s*:" + e.Key, Value: e.Value})
		}
	} else {
		for _, s := range srcs {
			for _, e := range s.f.rd.Header().Meta {
				hdr.Meta = append(hdr.Meta, MetaEntry{Key: saltPrefix(s.base) + e.Key, Value: e.Value})
			}
		}
	}
	return srcs, hdr, nil
}

func metaEqual(a, b []MetaEntry) bool {
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

func synthWriter(out io.Writer, hdr Header, opt SynthOptions) (*Writer, error) {
	if opt.Compress {
		return NewWriter(out, hdr, WithCompression())
	}
	return NewWriter(out, hdr)
}

// Interleave merges K traces as independent mutator sessions sharing one
// heap: the scheduler hands each session a turn of at least opt.Chunk
// events (round-robin, or pseudo-randomly when opt.Seed is nonzero),
// switching only at the session's quiescent points. Each turn is tagged
// with a KindSession marker, so Split can demultiplex the result back
// into the original inputs and the sharded replay driver can partition
// it. ID and global-root namespaces are disjoint per session; symbol
// names are salted per session.
func Interleave(out io.Writer, inputs []*Reader, opt SynthOptions) (Trailer, error) {
	return synthesize(out, inputs, 1, opt, "interleave")
}

// Amplify is an n-fold self-interleave: n sessions each replaying the
// trace serialized in data, with per-copy ID salting, which turns one
// recorded session into an n-session heavy-traffic corpus. The trace is
// decoded once; the n sessions share its decoded events.
func Amplify(out io.Writer, data []byte, n int, opt SynthOptions) (Trailer, error) {
	if n <= 0 {
		return Trailer{}, fmt.Errorf("%w: synth: amplify count %d", ErrInvalid, n)
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return Trailer{}, err
	}
	return synthesize(out, []*Reader{rd}, n, opt, "amplify")
}

// synthesize interleaves copies sessions of each input.
func synthesize(out io.Writer, inputs []*Reader, copies int, opt SynthOptions, op string) (Trailer, error) {
	srcs, hdr, err := prepSources(inputs, copies, op, opt)
	if err != nil {
		return Trailer{}, err
	}
	w, err := synthWriter(out, hdr, opt)
	if err != nil {
		return Trailer{}, err
	}
	m := &merger{w: w, salt: len(srcs) > 1, lastSess: -1, extra: censusExtra(hdr)}
	chunk := opt.Chunk
	if chunk <= 0 {
		chunk = defaultChunk
	}
	live := make([]*synthSource, 0, len(srcs))
	for _, s := range srcs {
		if !s.eof {
			live = append(live, s)
		}
	}
	rng := xrng(opt.Seed)
	next := 0
	for len(live) > 0 {
		k := 0
		if opt.Seed != 0 {
			k = int(rng.next() % uint64(len(live)))
		} else {
			if next >= len(live) {
				next = 0
			}
			k = next
			next++
		}
		s := live[k]
		if err := m.turn(s, chunk); err != nil {
			return Trailer{}, err
		}
		if s.eof {
			live = append(live[:k], live[k+1:]...)
			if opt.Seed == 0 && k < next {
				next--
			}
		}
	}
	return m.finish(srcs)
}

func censusExtra(hdr Header) uint64 {
	if hdr.Census {
		return 1
	}
	return 0
}

// demuxOut is one output trace of a Split or Shard demultiplex.
type demuxOut struct {
	buf     bytes.Buffer
	w       *Writer
	allocs  uint64
	globals int
	words   uint64
}

// demux streams in into groups, rewriting object IDs and global indices
// into each group's local namespace. Sessions never reference each
// other's objects, so a single merged-ID table (plus an owner check)
// suffices.
func demux(in *Reader, groups int, groupOf func(sess int) int,
	header func(group int) Header, keepMarks, unsalt bool, opt SynthOptions) ([][]byte, error) {
	outs := make([]*demuxOut, groups)
	for g := range outs {
		o := &demuxOut{}
		w, err := synthWriter(&o.buf, header(g), opt)
		if err != nil {
			return nil, err
		}
		o.w = w
		outs[g] = o
	}
	extra := censusExtra(in.Header())
	var localID []uint64
	var idOwner []int32
	var localGlobal []int
	var globalOwner []int32
	cursess := 0
	cur := outs[groupOf(0)]
	var ev Event
	for {
		nerr := in.Next(&ev)
		if errors.Is(nerr, io.EOF) {
			break
		}
		if nerr != nil {
			return nil, nerr
		}
		if ev.Kind == KindSession {
			if g := groupOf(ev.Size); g < 0 || g >= groups {
				return nil, fmt.Errorf("%w: session marker %d out of range", ErrInvalid, ev.Size)
			}
			cursess = ev.Size
			cur = outs[groupOf(cursess)]
			if !keepMarks {
				continue
			}
			if err := cur.w.session(ev.Size); err != nil {
				return nil, err
			}
			continue
		}
		group := int32(groupOf(cursess))
		remapObj := func(id uint64) (uint64, error) {
			if id >= uint64(len(localID)) {
				return 0, fmt.Errorf("%w: reference to unallocated object #%d", ErrInvalid, id)
			}
			if idOwner[id] != group {
				return 0, fmt.Errorf("%w: cross-session reference to object #%d", ErrInvalid, id)
			}
			return localID[id], nil
		}
		// ev is rewritten in place: the next Next overwrites it anyway.
		var err error
		switch ev.Kind {
		case KindStore, KindFill, KindRaw, KindIntern:
			if ev.Obj, err = remapObj(ev.Obj); err != nil {
				return nil, err
			}
		}
		if ev.Val.IsObj {
			if ev.Val.Bits, err = remapObj(ev.Val.Bits); err != nil {
				return nil, err
			}
		}
		switch ev.Kind {
		case KindAlloc:
			localID = append(localID, cur.allocs)
			idOwner = append(idOwner, group)
			cur.allocs++
			cur.words += 1 + uint64(ev.Size) + extra
		case KindIntern:
			localGlobal = append(localGlobal, cur.globals)
			globalOwner = append(globalOwner, group)
			cur.globals++
			if unsalt {
				ev.Name = strings.TrimPrefix(ev.Name, saltPrefix(cursess))
			}
		case KindGlobal:
			localGlobal = append(localGlobal, cur.globals)
			globalOwner = append(globalOwner, group)
			cur.globals++
		case KindSet:
			if ev.Ref <= -2 {
				g := int(-ev.Ref) - 2
				if g >= len(localGlobal) {
					return nil, fmt.Errorf("%w: global ref g%d before its creation", ErrInvalid, g)
				}
				if globalOwner[g] != group {
					return nil, fmt.Errorf("%w: cross-session reference to global g%d", ErrInvalid, g)
				}
				ev.Ref = int32(-localGlobal[g] - 2)
			}
			// Positive refs are handle-stack depths; segments start and
			// end at depth zero in both the merged and demuxed streams,
			// so they need no rewrite.
		}
		if err := cur.w.Append(&ev); err != nil {
			return nil, err
		}
	}
	res := make([][]byte, groups)
	for g, o := range outs {
		tr := Trailer{WordsAllocated: o.words, ObjectsAllocated: o.allocs, Events: o.w.Events()}
		if err := o.w.Close(tr); err != nil {
			return nil, err
		}
		res[g] = o.buf.Bytes()
	}
	return res, nil
}

// sessionCount reads the "sessions" metadata of a synthesized trace.
func sessionCount(hdr Header) (int, bool) {
	v, ok := hdr.Lookup("sessions")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// sessionHeader reconstructs session sess's original header from the
// merged trace's provenance metadata ("s<sess>:" entries, or the shared
// "s*:" entries an Amplify writes).
func sessionHeader(merged Header, sess int) Header {
	hdr := Header{Census: merged.Census}
	prefix := saltPrefix(sess)
	for _, e := range merged.Meta {
		if k, ok := strings.CutPrefix(e.Key, prefix); ok {
			hdr.Meta = append(hdr.Meta, MetaEntry{Key: k, Value: e.Value})
		}
	}
	if hdr.Meta == nil {
		for _, e := range merged.Meta {
			if k, ok := strings.CutPrefix(e.Key, "s*:"); ok {
				hdr.Meta = append(hdr.Meta, MetaEntry{Key: k, Value: e.Value})
			}
		}
	}
	return hdr
}

// Split demultiplexes a session-marked trace back into its per-session
// inputs: markers are dropped, IDs and globals return to session-local
// numbering, salts are stripped, and each session's header is restored
// from the provenance metadata. Splitting an Interleave (or Amplify) of
// single-session inputs reproduces those inputs byte for byte; nested
// synthesis splits at the outermost session granularity and keeps inner
// salts.
func Split(in *Reader, opt SynthOptions) ([][]byte, error) {
	merged := in.Header()
	sessions, ok := sessionCount(merged)
	if !ok {
		return nil, fmt.Errorf("%w: split: input is not a session-marked synthesized trace", ErrInvalid)
	}
	v, ok := merged.Lookup("synth_salt")
	unsalt := ok && v == "1"
	return demux(in, sessions,
		func(sess int) int { return sess },
		func(group int) Header { return sessionHeader(merged, group) },
		false, unsalt, opt)
}

// Shard partitions a session-marked trace into n independently
// replayable traces, assigning session s to shard s mod n. Markers and
// salts are kept, so shard traces remain attributable; object IDs and
// global indices are renumbered shard-locally. An unmarked trace lands
// wholly in shard 0 (the other shards are valid empty traces). Because
// sessions never reference each other's objects, replaying every shard
// and summing the mutator statistics reproduces the merged trace's
// aggregate exactly, for any n.
func Shard(in *Reader, n int, opt SynthOptions) ([][]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: shard count %d", ErrInvalid, n)
	}
	merged := in.Header()
	hdr := func(group int) Header {
		h := Header{Census: merged.Census}
		h.Meta = append(h.Meta, MetaEntry{Key: "shard", Value: fmt.Sprintf("%d/%d", group, n)})
		for _, e := range merged.Meta {
			if e.Key == "heap_words" {
				// Each shard holds ~1/n of the sessions, so scale its
				// replay-heap sizing hint down accordingly.
				if words, err := strconv.Atoi(e.Value); err == nil {
					scaled := words / n
					if scaled < 1 {
						scaled = 1
					}
					h.Meta = append(h.Meta, MetaEntry{Key: e.Key, Value: strconv.Itoa(scaled)})
					continue
				}
			}
			h.Meta = append(h.Meta, e)
		}
		return h
	}
	return demux(in, n,
		func(sess int) int { return sess % n },
		hdr, true, false, opt)
}
