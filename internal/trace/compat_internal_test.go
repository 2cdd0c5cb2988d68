package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"rdgc/internal/heap"
)

// writeEvents appends n simple events and closes the trace.
func writeEvents(t *testing.T, w *Writer, n int) {
	t.Helper()
	var words, objects uint64
	for i := 0; i < n; i++ {
		var ev Event
		if i%3 == 0 {
			ev = Event{Kind: KindAlloc, Type: heap.TPair, Size: 2}
			words += 3
			objects++
		} else {
			ev = Event{Kind: KindStore, Obj: uint64(i / 3), Slot: i % 2, Val: Imm(heap.Word(i))}
		}
		if err := w.Append(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(Trailer{WordsAllocated: words, ObjectsAllocated: objects, Events: uint64(n)}); err != nil {
		t.Fatal(err)
	}
}

// versionedTrace returns a well-formed 5000-event trace whose preamble
// declares version instead of FormatVersion.
func versionedTrace(t *testing.T, version uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Meta: []MetaEntry{{Key: "workload", Value: "version"}}})
	if err != nil {
		t.Fatal(err)
	}
	writeEvents(t, w, 5000)
	raw := buf.Bytes()
	data := append([]byte{}, magic[:]...)
	data = binary.AppendUvarint(data, version)
	// FormatVersion is a one-byte uvarint.
	return append(data, raw[len(magic)+1:]...)
}

// TestOnlyFormatVersionReads: the reader decodes FormatVersion and refuses
// the versions before it with ErrVersion — version 1 (bare length framing,
// no compression flag), which it used to read, and 0 — on an otherwise
// well-formed trace.
func TestOnlyFormatVersionReads(t *testing.T) {
	for version := uint64(0); version <= FormatVersion; version++ {
		rd, err := NewReader(bytes.NewReader(versionedTrace(t, version)))
		if version == FormatVersion {
			if err != nil {
				t.Fatalf("version %d: %v", version, err)
			}
			if tr, err := rd.Drain(); err != nil || tr.Events != 5000 {
				t.Fatalf("version %d: drained a trace of %d events, %v", version, tr.Events, err)
			}
		} else if !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: got %v, want ErrVersion", version, err)
		}
	}
}

// TestFutureVersionsRefused: a version the reader does not know yet is
// ErrVersion, whether its uvarint takes one byte or several.
func TestFutureVersionsRefused(t *testing.T) {
	for _, version := range []uint64{FormatVersion + 1, 1 << 14} {
		if _, err := NewReader(bytes.NewReader(versionedTrace(t, version))); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: got %v, want ErrVersion", version, err)
		}
	}
}

// TestMixedCompressedBlocks reads a trace whose blocks alternate between
// compressed and raw — legal on the wire since the flag is per block, and
// what a compressing writer naturally produces when some blocks don't
// shrink. The writer's compress toggle is flipped mid-stream to force a
// deterministic mix.
func TestMixedCompressedBlocks(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{}, WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	append1 := func(ev Event) {
		if err := w.Append(&ev); err != nil {
			t.Fatal(err)
		}
		want = append(want, ev)
	}
	var words, objects uint64
	for seg := 0; seg < 6; seg++ {
		w.compress = seg%2 == 0 // internal toggle: even segments compress, odd store raw
		for i := 0; i < 9000; i++ {
			if i%3 == 0 {
				append1(Event{Kind: KindAlloc, Type: heap.TVector, Size: 4, Obj: objects})
				words += 5
				objects++
			} else {
				append1(Event{Kind: KindFill, Obj: objects - 1, Val: Imm(heap.Word(i))})
			}
		}
		if err := w.flushBlock(); err != nil { // seal the segment so the toggle lands on a block boundary
			t.Fatal(err)
		}
	}
	if err := w.Close(Trailer{WordsAllocated: words, ObjectsAllocated: objects, Events: uint64(len(want))}); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	for i := range want {
		if err := rd.Next(&ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev != want[i] {
			t.Fatalf("event %d: got %v, want %v", i, &ev, &want[i])
		}
	}
	if err := rd.Next(&ev); !errors.Is(err, io.EOF) {
		t.Fatalf("after last event: got %v, want EOF", err)
	}
	if rd.StoredBytes() >= rd.RawBytes() || rd.StoredBytes() == 0 {
		t.Fatalf("mixed stream: stored %d vs raw %d, want a partial reduction", rd.StoredBytes(), rd.RawBytes())
	}
}

// TestLZRoundTrip exercises the block codec directly across data shapes:
// highly repetitive, purely random, overlapping runs, and tiny inputs.
func TestLZRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tab lzTable
	cases := [][]byte{
		{},
		{0x42},
		[]byte("abcabcabcabcabcabcabcabc"),
		bytes.Repeat([]byte{7}, 100000), // long overlapping run (offset 1)
		make([]byte, blockTarget),
	}
	random := make([]byte, blockTarget)
	rng.Read(random)
	cases = append(cases, random)
	mixed := append(bytes.Repeat([]byte("trace"), 2000), random[:4096]...)
	cases = append(cases, mixed)
	for i, src := range cases {
		comp := lzAppend(nil, src, &tab)
		got := make([]byte, len(src))
		if !lzDecode(got, comp) {
			t.Fatalf("case %d: decode failed for %d-byte input", i, len(src))
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: round trip mangled %d-byte input", i, len(src))
		}
	}
}

// TestLZDecodeNeverPanics feeds the decoder random garbage and random
// truncations of valid streams: it must return false (or a correct
// decode), never panic or write out of bounds.
func TestLZDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var tab lzTable
	src := bytes.Repeat([]byte("abcdefgh12345678"), 512)
	comp := lzAppend(nil, src, &tab)
	dst := make([]byte, len(src))
	for n := 0; n < len(comp); n++ {
		lzDecode(dst, comp[:n]) // result irrelevant; must not panic
	}
	garbage := make([]byte, 4096)
	for trial := 0; trial < 200; trial++ {
		rng.Read(garbage)
		lzDecode(dst, garbage)
	}
}
