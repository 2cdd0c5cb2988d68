package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// poison fills every field of an event, so a decoder that leaves a field
// irrelevant to the decoded kind unzeroed shows up as a mismatch.
var poison = trace.Event{
	Kind: 0xEE, Type: 0x77, Size: -1, Slot: -1, Obj: ^uint64(0), Ref: -1,
	Val: trace.Value{IsObj: true, Bits: ^uint64(0)}, Full: true, Name: "poison",
}

// endClass names which sentinel ended a decode stream.
func endClass(err error) string {
	switch {
	case err == nil:
		return "event"
	case errors.Is(err, io.EOF):
		return "EOF"
	case errors.Is(err, trace.ErrCorrupt):
		return "ErrCorrupt"
	case errors.Is(err, trace.ErrTruncated):
		return "ErrTruncated"
	}
	return "unclassified: " + err.Error()
}

// diffDecoders runs data through Reader.Next and the reference decoder in
// lock step. They must agree on every event (all fields, Name included),
// on the sentinel and the message that end the stream, on the event index
// where it ends, and on every counter the reader exposes. It returns the
// number of events decoded and the error that ended the stream.
func diffDecoders(t testing.TB, data []byte) (uint64, error) {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(data))
	ref, rerr := trace.NewReader(bytes.NewReader(data))
	if err != nil || rerr != nil {
		if err == nil || rerr == nil || err.Error() != rerr.Error() {
			t.Fatalf("NewReader is not deterministic: %v vs %v", err, rerr)
		}
		return 0, err
	}
	for i := uint64(0); ; i++ {
		got, want := poison, poison
		gerr, werr := rd.Next(&got), ref.ReferenceNext(&want)
		if endClass(gerr) != endClass(werr) {
			t.Fatalf("event %d: Next ended with %v, reference with %v", i, gerr, werr)
		}
		if gerr == nil && got != want {
			t.Fatalf("event %d: Next decoded %+v, reference %+v", i, got, want)
		}
		if rd.Events() != ref.Events() {
			t.Fatalf("event %d: Events() %d vs reference %d", i, rd.Events(), ref.Events())
		}
		if gerr == nil {
			continue
		}
		if gerr.Error() != werr.Error() {
			t.Fatalf("event %d: Next failed with %q, reference with %q", i, gerr, werr)
		}
		if gerr == io.EOF != (werr == io.EOF) {
			t.Fatalf("event %d: bare io.EOF from one decoder only: %#v vs %#v", i, gerr, werr)
		}
		if rd.StoredBytes() != ref.StoredBytes() || rd.RawBytes() != ref.RawBytes() || rd.Trailer() != ref.Trailer() {
			t.Fatalf("event %d: counters diverge: stored %d/%d raw %d/%d trailer %+v/%+v", i,
				rd.StoredBytes(), ref.StoredBytes(), rd.RawBytes(), ref.RawBytes(), rd.Trailer(), ref.Trailer())
		}
		if again := rd.Next(&got); again != gerr {
			t.Fatalf("event %d: error is not sticky: %v then %v", i, gerr, again)
		}
		return i, gerr
	}
}

// reencode decodes a well-formed trace and writes its header and events
// back out, compressed or raw.
func reencode(t *testing.T, data []byte, compress bool) []byte {
	t.Helper()
	hdr, evs, tr := decode(t, data)
	var opts []trace.WriterOption
	if compress {
		opts = append(opts, trace.WithCompression())
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, hdr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		if err := w.Append(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNextMatchesReference holds the single-pass decoder to the decoder it
// replaced over every well-formed stream the tree has: the checked-in
// corpus, the synth golden corpus, the benchmarks' decay corpus and random
// all-kinds streams — each as stored and, the amplified corpora apart,
// re-encoded raw and compressed at version 2 and, where it has no session
// events, at version 1.
func TestNextMatchesReference(t *testing.T) {
	sources := map[string][]byte{}
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.trace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus traces in %s: %v", corpusDir, err)
	}
	for _, path := range files {
		if sources[filepath.Base(path)], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	sources["synth-base"] = recordBase(t, 9, 40, 2048)
	sources["synth-1k"], sources["synth-1k-z"] = build1kCorpus(t)
	sources["decay"], sources["decay-z"], _ = decayCorpus(t)
	for seed := int64(1); seed <= 3; seed++ {
		evs := genEvents(rand.New(rand.NewSource(seed)), 20000)
		sources["random-"+string(rune('0'+seed))] = encode(t, trace.Header{Census: seed == 2}, evs)
	}

	for name, data := range sources {
		_, evs, _ := decode(t, data)
		check := func(form string, data []byte) {
			if n, end := diffDecoders(t, data); end != io.EOF || n != uint64(len(evs)) {
				t.Fatalf("%s %s: ended after %d of %d events with %v", name, form, n, len(evs), end)
			}
		}
		check("as stored", data)
		if len(data) > 1<<20 {
			// The amplified corpora are sources in both stored forms already.
			continue
		}
		check("raw", reencode(t, data, false))
		check("compressed", reencode(t, data, true))
	}
}

// craftTrace frames one hand-assembled event block as a complete trace:
// empty header, the block, terminator, and a trailer claiming the given
// event count — so a payload reaches the decoder behind a valid checksum.
func craftTrace(payload []byte, events uint64) []byte {
	frame := func(b, p []byte) []byte {
		b = binary.AppendUvarint(b, uint64(len(p))<<1)
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(p))
		return append(b, p...)
	}
	b := binary.AppendUvarint([]byte("rdgctrc\x00"), trace.FormatVersion)
	b = frame(b, []byte{0, 0}) // no census, no metadata
	b = frame(b, payload)
	b = binary.AppendUvarint(b, 0)
	tr := binary.AppendUvarint([]byte{0, 0}, events)
	b = append(b, tr...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(tr))
}

// TestNextRejectsMalformedEvents drives every bounds and range check of
// the event decoder with a payload built to trip exactly that check (and
// its nearest well-formed neighbour), through both decoders: they must
// agree, and the message must be the one the check has always produced.
func TestNextRejectsMalformedEvents(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	alloc := []byte{byte(trace.KindAlloc), byte(heap.TPair), 2}
	const (
		kAlloc, kStore, kFill, kRaw, kIntern = byte(trace.KindAlloc), byte(trace.KindStore), byte(trace.KindFill), byte(trace.KindRaw), byte(trace.KindIntern)
		kPush, kPopTo, kSet, kGlobal         = byte(trace.KindPush), byte(trace.KindPopTo), byte(trace.KindSet), byte(trace.KindGlobal)
		kCollect, kSession                   = byte(trace.KindCollect), byte(trace.KindSession)
		maxBlock                             = 1 << 24
	)
	overlong := bytes.Repeat([]byte{0xff}, 10) // an 11-byte varint once terminated: overflows uint64
	cases := []struct {
		name    string
		payload []byte
		events  int    // events decoded before the stream ends
		want    string // substring of the ErrCorrupt message; "" = well formed
	}{
		{"alloc without type", []byte{kAlloc}, 0, "event overruns block"},
		{"alloc without size", []byte{kAlloc, 0}, 0, "bad varint at block offset 2"},
		{"alloc size unterminated", []byte{kAlloc, 0, 0x80}, 0, "bad varint at block offset 2"},
		{"alloc size overflows", cat([]byte{kAlloc, 0}, overlong, []byte{1}), 0, "bad varint at block offset 2"},
		{"alloc size at the limit", cat([]byte{kAlloc, 0}, uv(maxBlock)), 1, ""},
		{"alloc size past the limit", cat([]byte{kAlloc, 0}, uv(maxBlock+1)), 0, "absurd allocation size 16777217"},
		{"alloc size past the limit and bad type", cat([]byte{kAlloc, 255}, uv(maxBlock+1)), 0, "absurd allocation size"},
		{"alloc type TFree", []byte{kAlloc, byte(heap.TFree), 2}, 0, "bad allocation type"},
		{"alloc type 255", []byte{kAlloc, 255, 2}, 0, "bad allocation type 255"},
		{"alloc size non-minimal varint", []byte{kAlloc, 0, 0x82, 0x00}, 1, ""},

		{"store before any alloc", []byte{kStore, 0, 0, 0, 0}, 0, "object delta 0 references before the first allocation"},
		{"store delta one past", cat(alloc, []byte{kStore, 1, 0, 0, 0}), 1, "object delta 1 references before"},
		{"store delta huge", cat(alloc, []byte{kStore}, uv(^uint64(0)), []byte{0, 0, 0}), 1, "object delta 18446744073709551615"},
		{"store without target", cat(alloc, []byte{kStore}), 1, "bad varint at block offset 4"},
		{"store without slot", cat(alloc, []byte{kStore, 0}), 1, "bad varint at block offset 5"},
		{"store without value", cat(alloc, []byte{kStore, 0, 0}), 1, "event overruns block"},
		{"store value discriminator 2", cat(alloc, []byte{kStore, 0, 0, 2, 0}), 1, "bad value discriminator 2"},
		{"store value without operand", cat(alloc, []byte{kStore, 0, 0, 1}), 1, "bad varint at block offset 7"},
		{"store value object out of range", cat(alloc, []byte{kStore, 0, 0, 1, 1}), 1, "object delta 1 references before"},
		{"store immediate", cat(alloc, []byte{kStore, 0, 1, 0, 9}), 2, ""},
		{"store object, two-byte slot", cat(alloc, []byte{kStore, 0, 0x80, 0x01, 1, 0}), 2, ""},

		{"fill value object out of range", cat(alloc, []byte{kFill, 0, 1, 7}), 1, "object delta 7 references before"},
		{"fill bad target", cat(alloc, []byte{kFill, 3, 0, 0}), 1, "object delta 3 references before"},

		{"raw seven bytes of bits", cat(alloc, []byte{kRaw, 0, 0, 1, 2, 3, 4, 5, 6, 7}), 1, "raw bits overrun block"},
		{"raw no bits", cat(alloc, []byte{kRaw, 0, 0}), 1, "raw bits overrun block"},
		{"raw eight bytes of bits", cat(alloc, []byte{kRaw, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}), 2, ""},
		{"raw before any alloc", []byte{kRaw, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, 0, "object delta 0 references before"},

		{"intern name overruns", cat(alloc, []byte{kIntern, 0, 5, 'a', 'b'}), 1, "string length 5 overruns block"},
		{"intern name length huge", cat(alloc, []byte{kIntern, 0}, uv(^uint64(0))), 1, "string length 18446744073709551615 overruns block"},
		{"intern without length", cat(alloc, []byte{kIntern, 0}), 1, "bad varint at block offset 5"},
		{"intern exact", cat(alloc, []byte{kIntern, 0, 2, 'a', 'b'}), 2, ""},
		{"intern empty name", cat(alloc, []byte{kIntern, 0, 0}), 2, ""},

		{"push object before any alloc", []byte{kPush, 1, 0}, 0, "object delta 0 references before"},
		{"push without value", []byte{kPush}, 0, "event overruns block"},
		{"push immediate", []byte{kPush, 0, 5}, 1, ""},
		{"popto without depth", []byte{kPopTo}, 0, "bad varint at block offset 1"},
		{"popto ten-byte depth", cat([]byte{kPopTo}, uv(^uint64(0))), 1, ""},
		{"set without ref", []byte{kSet}, 0, "bad varint at block offset 1"},
		{"set without value", []byte{kSet, 3}, 0, "event overruns block"},
		{"set two-byte ref", []byte{kSet, 0x81, 0x01, 0, 1}, 1, ""},
		{"set negative ref", []byte{kSet, 5, 0, 1}, 1, ""},
		{"global bad discriminator", []byte{kGlobal, 7, 0}, 0, "bad value discriminator 7"},
		{"collect without flag", []byte{kCollect}, 0, "event overruns block"},
		{"collect full", []byte{kCollect, 1, kCollect, 0}, 2, ""},
		{"session at the limit", cat([]byte{kSession}, uv(maxBlock)), 1, ""},
		{"session past the limit", cat([]byte{kSession}, uv(maxBlock+1)), 0, "absurd session index 16777217"},
		{"opcode 0", []byte{0}, 0, "unknown event opcode 0"},
		{"opcode 12", cat(alloc, []byte{12, 0}), 1, "unknown event opcode 12"},
		{"opcode 255", []byte{255}, 0, "unknown event opcode 255"},
	}
	for _, tc := range cases {
		n, err := diffDecoders(t, craftTrace(tc.payload, uint64(tc.events)))
		if int(n) != tc.events {
			t.Errorf("%s: stream ended after %d events, want %d (%v)", tc.name, n, tc.events, err)
		}
		switch {
		case tc.want == "" && err != io.EOF:
			t.Errorf("%s: well-formed payload rejected: %v", tc.name, err)
		case tc.want != "" && (!errors.Is(err, trace.ErrCorrupt) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want ErrCorrupt with %q", tc.name, err, tc.want)
		}
	}

	// The trailer ends a trace: bytes after it, garbage or a second whole
	// trace, fail the stream once every event has been read, raw or
	// compressed.
	raw := craftTrace(cat(alloc, []byte{kPush, 0, 5}), 2)
	comp := encodeZ(t, trace.Header{}, genEvents(rand.New(rand.NewSource(4)), 3000))
	garbage := []byte("garbage after the trailer")
	for _, tc := range []struct {
		name   string
		data   []byte
		events int
		want   string
	}{
		{"garbage after the trailer", cat(raw, garbage), 2, "25 bytes after trailer"},
		{"one byte after the trailer", cat(raw, []byte{0}), 2, "1 bytes after trailer"},
		{"two traces back to back", cat(raw, raw), 2, fmt.Sprintf("%d bytes after trailer", len(raw))},
		{"garbage after a compressed trailer", cat(comp, garbage), 3000, "25 bytes after trailer"},
		{"two compressed traces back to back", cat(comp, comp), 3000, fmt.Sprintf("%d bytes after trailer", len(comp))},
	} {
		n, err := diffDecoders(t, tc.data)
		if int(n) != tc.events || !errors.Is(err, trace.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ended after %d events with %v, want %d events and ErrCorrupt with %q", tc.name, n, err, tc.events, tc.want)
		}
	}
}
