package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// genEvents produces a random but *valid* event sequence: the first event
// allocates, and every object reference points at an already-allocated ID.
// Alloc events carry their expected ID in Obj, matching what the codec
// assigns, so decoded events compare with == against the generated ones.
func genEvents(rng *rand.Rand, n int) []trace.Event {
	var evs []trace.Event
	allocs := uint64(0)
	someObj := func() uint64 { return uint64(rng.Intn(int(allocs))) }
	someVal := func() trace.Value {
		if rng.Intn(2) == 0 {
			return trace.Obj(someObj())
		}
		// Immediate bits exercise the zigzag path in both directions.
		return trace.Imm(heap.Word(rng.Uint64()))
	}
	alloc := func() trace.Event {
		ev := trace.Event{
			Kind: trace.KindAlloc,
			Type: heap.Type(rng.Intn(int(heap.TFree))),
			Size: rng.Intn(12),
			Obj:  allocs,
		}
		allocs++
		return ev
	}
	evs = append(evs, alloc())
	for len(evs) < n {
		var ev trace.Event
		switch rng.Intn(11) {
		case 0:
			ev = alloc()
		case 1:
			ev = trace.Event{Kind: trace.KindStore, Obj: someObj(), Slot: rng.Intn(8), Val: someVal()}
		case 2:
			ev = trace.Event{Kind: trace.KindFill, Obj: someObj(), Val: someVal()}
		case 3:
			ev = trace.Event{Kind: trace.KindRaw, Obj: someObj(), Slot: rng.Intn(8), Val: trace.Value{Bits: rng.Uint64()}}
		case 4:
			ev = trace.Event{Kind: trace.KindIntern, Obj: someObj(), Name: fmt.Sprintf("sym-%d", rng.Intn(1000))}
		case 5:
			ev = trace.Event{Kind: trace.KindPush, Val: someVal()}
		case 6:
			ev = trace.Event{Kind: trace.KindPopTo, Size: rng.Intn(100)}
		case 7:
			ev = trace.Event{Kind: trace.KindSet, Ref: int32(rng.Intn(200) - 100), Val: someVal()}
		case 8:
			ev = trace.Event{Kind: trace.KindGlobal, Val: someVal()}
		case 9:
			ev = trace.Event{Kind: trace.KindCollect, Full: rng.Intn(2) == 0}
		case 10:
			ev = trace.Event{Kind: trace.KindSession, Size: rng.Intn(5000)}
		}
		evs = append(evs, ev)
	}
	return evs
}

// encode writes the events as a complete trace.
func encode(t *testing.T, hdr trace.Header, evs []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		ev := evs[i] // the writer mutates Obj on allocs; keep evs pristine
		if err := w.Append(&ev); err != nil {
			t.Fatalf("append %v: %v", &evs[i], err)
		}
		if ev != evs[i] {
			t.Fatalf("append rewrote event: %v != %v", &ev, &evs[i])
		}
	}
	if err := w.Close(trace.Trailer{WordsAllocated: 12345, ObjectsAllocated: 99, Events: uint64(len(evs))}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode reads back every event of a well-formed trace.
func decode(t *testing.T, raw []byte) (trace.Header, []trace.Event, trace.Trailer) {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	var ev trace.Event
	for {
		err := rd.Next(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("event %d: %v", len(evs), err)
		}
		evs = append(evs, ev)
	}
	return rd.Header(), evs, rd.Trailer()
}

// TestCodecRoundTrip is the core codec property: random valid event
// sequences survive Writer→Reader unchanged, and re-encoding the decoded
// stream reproduces the original bytes exactly.
func TestCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(20000) // small single-block and multi-block traces
		want := genEvents(rng, n)
		hdr := trace.Header{
			Census: seed%2 == 0,
			Meta:   []trace.MetaEntry{{Key: "workload", Value: "codec-test"}, {Key: "seed", Value: fmt.Sprint(seed)}},
		}
		raw := encode(t, hdr, want)

		gotHdr, got, tr := decode(t, raw)
		if gotHdr.Census != hdr.Census || len(gotHdr.Meta) != len(hdr.Meta) {
			t.Fatalf("seed %d: header mangled: %+v", seed, gotHdr)
		}
		for i, m := range gotHdr.Meta {
			if m != hdr.Meta[i] {
				t.Fatalf("seed %d: meta[%d] = %+v, want %+v", seed, i, m, hdr.Meta[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: decoded %d events, wrote %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d: got %v, want %v", seed, i, &got[i], &want[i])
			}
		}
		if tr.Events != uint64(n) || tr.WordsAllocated != 12345 || tr.ObjectsAllocated != 99 {
			t.Fatalf("seed %d: trailer %+v", seed, tr)
		}

		// Byte-for-byte: the decoded stream re-encodes to the same trace.
		raw2 := encode(t, gotHdr, got)
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("seed %d: re-encoding decoded events changed the bytes (%d vs %d)", seed, len(raw), len(raw2))
		}
	}
}

// drainAll parses raw to the end, converting panics into errors so the
// corruption tests can assert "sentinel error, never a panic".
func drainAll(raw []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	rd, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	_, err = rd.Drain()
	return err
}

// isSentinel reports whether err wraps one of the decode sentinels.
func isSentinel(err error) bool {
	return errors.Is(err, trace.ErrBadMagic) || errors.Is(err, trace.ErrVersion) ||
		errors.Is(err, trace.ErrCorrupt) || errors.Is(err, trace.ErrTruncated)
}

// smallTrace builds a short single-block trace for exhaustive corruption.
func smallTrace(t *testing.T) []byte {
	rng := rand.New(rand.NewSource(7))
	return encode(t, trace.Header{Meta: []trace.MetaEntry{{Key: "workload", Value: "corrupt-me"}}}, genEvents(rng, 120))
}

// TestTruncationEveryPrefix cuts a trace at every byte boundary: every
// prefix must fail with a sentinel — never succeed, never panic — because
// only the full trace ends in a verified trailer.
func TestTruncationEveryPrefix(t *testing.T) {
	raw := smallTrace(t)
	for n := 0; n < len(raw); n++ {
		err := drainAll(raw[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed as a complete trace", n, len(raw))
		}
		if !isSentinel(err) {
			t.Fatalf("prefix of %d bytes: non-sentinel error %v", n, err)
		}
	}
	if err := drainAll(raw); err != nil {
		t.Fatalf("full trace must parse: %v", err)
	}
}

// TestTruncationMultiBlock spot-checks truncation of a trace long enough to
// span several 32 KiB blocks, including cuts inside later frames.
func TestTruncationMultiBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	raw := encode(t, trace.Header{}, genEvents(rng, 30000))
	if len(raw) < 3*32<<10 {
		t.Fatalf("trace too small (%d bytes) to span blocks", len(raw))
	}
	for n := 0; n < len(raw); n += 997 {
		if err := drainAll(raw[:n]); err == nil || !isSentinel(err) {
			t.Fatalf("prefix of %d/%d bytes: got %v, want a sentinel", n, len(raw), err)
		}
	}
	for _, back := range []int{1, 2, 3, 4, 5, 8, 12} {
		if err := drainAll(raw[:len(raw)-back]); err == nil || !isSentinel(err) {
			t.Fatalf("trailer cut %d bytes short: got %v, want a sentinel", back, err)
		}
	}
}

// TestBitFlipEveryBit flips every single bit of a small trace: each flip
// must surface as a sentinel error (magic, version, or a checksum/framing
// failure) — never a panic, and never a silently accepted trace.
func TestBitFlipEveryBit(t *testing.T) {
	raw := smallTrace(t)
	mut := make([]byte, len(raw))
	for pos := 0; pos < len(raw); pos++ {
		for bit := 0; bit < 8; bit++ {
			copy(mut, raw)
			mut[pos] ^= 1 << bit
			err := drainAll(mut)
			if err == nil {
				t.Fatalf("flipping byte %d bit %d went undetected", pos, bit)
			}
			if !isSentinel(err) {
				t.Fatalf("flipping byte %d bit %d: non-sentinel error %v", pos, bit, err)
			}
		}
	}
}

// TestWriterRejectsInvalidEvents pins the writer-side ErrInvalid contract:
// every event the reader would reject (or a replay would trip over) is
// refused when it is appended, nothing of it is written, and the refusal is
// sticky.
func TestWriterRejectsInvalidEvents(t *testing.T) {
	const maxBlock = 1 << 24 // the reader's bound on sizes and session indices
	pair := trace.Event{Kind: trace.KindAlloc, Type: heap.TPair, Size: 2}
	cases := []struct {
		name    string
		version uint64 // 0: the current format
		prior   []trace.Event
		bad     trace.Event
	}{
		{"store before any alloc", 0, nil, trace.Event{Kind: trace.KindStore, Obj: 0, Val: trace.Imm(0)}},
		{"push of a future object", 0, []trace.Event{pair}, trace.Event{Kind: trace.KindPush, Val: trace.Obj(5)}},
		{"fill of a future object", 0, []trace.Event{pair}, trace.Event{Kind: trace.KindFill, Obj: 1}},
		{"set to a future object", 0, []trace.Event{pair}, trace.Event{Kind: trace.KindSet, Ref: 1, Val: trace.Obj(1)}},
		{"intern of a future object", 0, nil, trace.Event{Kind: trace.KindIntern, Obj: 0, Name: "x"}},
		{"alloc of a free block", 0, nil, trace.Event{Kind: trace.KindAlloc, Type: heap.TFree, Size: 2}},
		{"alloc of type 255", 0, nil, trace.Event{Kind: trace.KindAlloc, Type: 255}},
		{"alloc of 1<<24+1 words", 0, nil, trace.Event{Kind: trace.KindAlloc, Type: heap.TVector, Size: maxBlock + 1}},
		{"alloc of -1 words", 0, nil, trace.Event{Kind: trace.KindAlloc, Type: heap.TVector, Size: -1}},
		{"store to slot -1", 0, []trace.Event{pair}, trace.Event{Kind: trace.KindStore, Obj: 0, Slot: -1, Val: trace.Imm(0)}},
		{"raw store to slot -1", 0, []trace.Event{pair}, trace.Event{Kind: trace.KindRaw, Obj: 0, Slot: -1}},
		{"pop to depth -3", 0, nil, trace.Event{Kind: trace.KindPopTo, Size: -3}},
		{"session 1<<24+1", 0, nil, trace.Event{Kind: trace.KindSession, Size: maxBlock + 1}},
		{"session -1", 0, nil, trace.Event{Kind: trace.KindSession, Size: -1}},
		{"session in version 1", 1, nil, trace.Event{Kind: trace.KindSession, Size: 0}},
		{"symbol name longer than a block", 0, []trace.Event{pair}, trace.Event{Kind: trace.KindIntern, Obj: 0, Name: strings.Repeat("x", maxBlock)}},
		{"kind 0", 0, nil, trace.Event{}},
		{"kind 12", 0, nil, trace.Event{Kind: 12}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		version := tc.version
		if version == 0 {
			version = trace.FormatVersion
		}
		w, err := trace.NewWriterVersion(&buf, trace.Header{}, version)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.prior {
			ev := tc.prior[i]
			if err := w.Append(&ev); err != nil {
				t.Fatalf("%s: prior event %v: %v", tc.name, &ev, err)
			}
		}
		bad := tc.bad
		if err := w.Append(&bad); !errors.Is(err, trace.ErrInvalid) {
			t.Errorf("%s: got %v, want ErrInvalid", tc.name, err)
			continue
		}
		if bad.Obj != tc.bad.Obj {
			t.Errorf("%s: a refused event was assigned object #%d", tc.name, bad.Obj)
		}
		if w.Events() != uint64(len(tc.prior)) {
			t.Errorf("%s: %d events counted after the refusal, want %d", tc.name, w.Events(), len(tc.prior))
		}
		ok := trace.Event{Kind: trace.KindCollect}
		if err := w.Append(&ok); !errors.Is(err, trace.ErrInvalid) {
			t.Errorf("%s: the refusal is not sticky: a valid event then got %v", tc.name, err)
		}
	}

	// The edges of the ranges are in range: they are written and read back.
	edges := []trace.Event{
		{Kind: trace.KindAlloc, Type: heap.TFree - 1, Size: maxBlock, Obj: 0},
		{Kind: trace.KindSession, Size: maxBlock},
		{Kind: trace.KindPopTo},
		{Kind: trace.KindStore, Obj: 0, Slot: 1 << 40, Val: trace.Obj(0)},
	}
	if _, got, _ := decode(t, encode(t, trace.Header{}, edges)); len(got) != len(edges) {
		t.Fatalf("read back %d edge events, want %d", len(got), len(edges))
	} else {
		for i := range got {
			if got[i] != edges[i] {
				t.Errorf("edge event %d: read back %v, want %v", i, &got[i], &edges[i])
			}
		}
	}

	var buf bytes.Buffer
	w, _ := trace.NewWriter(&buf, trace.Header{})
	a := pair
	if err := w.Append(&a); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(trace.Trailer{Events: 7}); !errors.Is(err, trace.ErrInvalid) {
		t.Fatalf("trailer event-count mismatch: got %v, want ErrInvalid", err)
	}

	w, _ = trace.NewWriter(&buf, trace.Header{})
	if err := w.Close(trace.Trailer{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&a); !errors.Is(err, trace.ErrInvalid) {
		t.Fatalf("append after Close: got %v, want ErrInvalid", err)
	}
}

// TestEventIsOneCacheLine pins Event's layout: the one-byte fields and Ref
// share a word, so every Event zeroed by Next or copied by a caller is 64
// bytes.
func TestEventIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(trace.Event{}); size != 64 {
		t.Fatalf("trace.Event is %d bytes, want 64", size)
	}
}

// TestReaderSteadyStateZeroAllocs guards the streaming read path: decoding
// intern-free events from an already-warm reader must not allocate. Events
// are uniform, so every sealed block has an identical payload length and
// the reader's block buffer never regrows after the first full block.
func TestReaderSteadyStateZeroAllocs(t *testing.T) {
	var evs []trace.Event
	for i := 0; i < 120000; i++ {
		if i%3 == 0 {
			evs = append(evs, trace.Event{Kind: trace.KindAlloc, Type: heap.TPair, Size: 2, Obj: uint64(i / 3)})
		} else {
			evs = append(evs, trace.Event{Kind: trace.KindStore, Obj: uint64(i / 3), Slot: 0, Val: trace.Imm(heap.FixnumWord(4))})
		}
	}
	raw := encode(t, trace.Header{}, evs)

	rd, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var ev trace.Event
	for i := 0; i < 20000; i++ { // warmup: block buffer reaches steady size
		if err := rd.Next(&ev); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 1000; i++ {
			if err := rd.Next(&ev); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Next allocates %.2f objects per 1000 events, want 0", allocs)
	}
}
