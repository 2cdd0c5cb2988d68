package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// FuzzTraceReader feeds arbitrary bytes to the trace reader: it must
// either decode cleanly or fail with one of the package sentinels —
// never panic, never return an unwrapped error — and Next must agree with
// the reference decoder (diffDecoders) on every event, on the sentinel
// that ends the stream and on the event index where it ends. Seeds cover
// compressed and uncompressed blocks, synthesized session streams (via the
// checked-in corpus), truncations, and bytes after the trailer.
func FuzzTraceReader(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	small := func(compress bool) []byte {
		var buf bytes.Buffer
		var opts []trace.WriterOption
		if compress {
			opts = append(opts, trace.WithCompression())
		}
		w, err := trace.NewWriter(&buf, trace.Header{Meta: []trace.MetaEntry{{Key: "workload", Value: "fuzz-seed"}}}, opts...)
		if err != nil {
			f.Fatal(err)
		}
		evs := genEvents(rng, 400)
		for i := range evs {
			if err := w.Append(&evs[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(trace.Trailer{Events: uint64(len(evs))}); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	raw, comp := small(false), small(true)
	f.Add(raw)
	f.Add(comp)
	f.Add(raw[:len(raw)/2])
	f.Add(bytes.Join([][]byte{comp, []byte("garbage after the trailer")}, nil))
	f.Add(bytes.Join([][]byte{raw, raw}, nil))
	f.Add(comp[:len(comp)/3])
	f.Add([]byte{})
	f.Add([]byte("rdgctrc\x00"))
	// A bare event payload (alloc, store, raw, intern, push, set, collect)
	// for the framed half of the fuzz function to mutate.
	f.Add([]byte{1, 0, 2, 2, 0, 1, 1, 0, 4, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 5, 0, 2, 'a', 'b', 6, 0, 9, 8, 3, 1, 0, 10, 1})
	corpus, _ := filepath.Glob(filepath.Join(corpusDir, "*.trace"))
	for _, path := range corpus {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		// Once as a whole trace, and once as the payload of an event block
		// framed behind a valid checksum — the only way mutated bytes reach
		// the event decoder rather than dying at the CRC.
		for _, input := range [][]byte{data, craftTrace(data, 0)} {
			if _, err := diffDecoders(t, input); err != io.EOF {
				checkSentinelErr(t, err)
			}
		}
	})
}

func checkSentinelErr(t *testing.T, err error) {
	t.Helper()
	for _, s := range []error{trace.ErrBadMagic, trace.ErrVersion, trace.ErrCorrupt, trace.ErrTruncated, trace.ErrInvalid, trace.ErrDrift} {
		if errors.Is(err, s) {
			return
		}
	}
	t.Fatalf("non-sentinel error from reader: %v", err)
}

// fuzzEvents decodes a fuzz input into writer events: a kind byte (mod 13,
// so kinds 0 and 12 are unknown), then the kind's operands. Only the
// fields the kind defines are set, so an event the writer accepts must
// read back equal to what was appended. A number is one byte c, meaning
// c-16, or the byte 0xff and eight bytes of little-endian int64 — enough to
// reach every range edge the writer checks.
func fuzzEvents(data []byte, limit int) []trace.Event {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	num := func() int64 {
		c := next()
		if c != 0xff {
			return int64(c) - 16
		}
		var u uint64
		for i := 0; i < 8; i++ {
			u |= uint64(next()) << (8 * i)
		}
		return int64(u)
	}
	val := func() trace.Value {
		isObj := next()&1 == 1
		return trace.Value{IsObj: isObj, Bits: uint64(num())}
	}
	var evs []trace.Event
	for pos < len(data) && len(evs) < limit {
		ev := trace.Event{Kind: trace.Kind(next() % 13)}
		switch ev.Kind {
		case trace.KindAlloc:
			ev.Type, ev.Size = heap.Type(next()), int(num())
		case trace.KindStore:
			ev.Obj, ev.Slot, ev.Val = uint64(num()), int(num()), val()
		case trace.KindFill:
			ev.Obj, ev.Val = uint64(num()), val()
		case trace.KindRaw:
			ev.Obj, ev.Slot, ev.Val.Bits = uint64(num()), int(num()), uint64(num())
		case trace.KindIntern:
			ev.Obj = uint64(num())
			n := int(next() % 32)
			ev.Name = string(data[pos:min(pos+n, len(data))])
			pos = min(pos+n, len(data))
		case trace.KindPush, trace.KindGlobal:
			ev.Val = val()
		case trace.KindPopTo, trace.KindSession:
			ev.Size = int(num())
		case trace.KindSet:
			ev.Ref, ev.Val = int32(num()), val()
		case trace.KindCollect:
			ev.Full = next()&1 == 1
		}
		evs = append(evs, ev)
	}
	return evs
}

// fuzzNum is the inverse of fuzzEvents' number decoding, for seeds.
func fuzzNum(v int64) []byte {
	if v >= -16 && v < 0xff-16 {
		return []byte{byte(v + 16)}
	}
	return binary.LittleEndian.AppendUint64([]byte{0xff}, uint64(v))
}

// FuzzWriterReaderAgree holds the writer to the reader: every event the
// writer accepts reads back identically (allocations with the ID the
// writer assigned), and every event it refuses fails with ErrInvalid. A
// refusal poisons a writer, so the accepted events so far are re-appended
// to a fresh one and the stream goes on. The first input byte picks raw
// or compressed blocks.
func FuzzWriterReaderAgree(f *testing.F) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	const maxBlock = 1 << 24
	alloc := []byte{byte(trace.KindAlloc), byte(heap.TPair), 18}
	f.Add(cat([]byte{0}, alloc, []byte{byte(trace.KindStore), 16, 16, 1, 16}))
	f.Add(cat([]byte{1}, alloc, alloc, []byte{byte(trace.KindPush), 1, 17, byte(trace.KindSet)}, fuzzNum(-2), []byte{0}, fuzzNum(-7)))
	for _, size := range []int64{-1, 0, maxBlock, maxBlock + 1} {
		f.Add(cat([]byte{0, byte(trace.KindAlloc), byte(heap.TVector)}, fuzzNum(size), alloc))
		f.Add(cat([]byte{0, byte(trace.KindSession)}, fuzzNum(size), alloc))
		f.Add(cat([]byte{0, byte(trace.KindPopTo)}, fuzzNum(size-3), alloc))
	}
	f.Add(cat([]byte{0, byte(trace.KindAlloc), byte(heap.TFree), 18}, alloc, []byte{byte(trace.KindRaw), 16}, fuzzNum(-1), fuzzNum(-1)))
	f.Add(cat([]byte{1, byte(trace.KindIntern), 16, 3, 'a', 'b', 'c'}, alloc, []byte{byte(trace.KindIntern), 16, 3, 'a', 'b', 'c', 0, 12}))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var opts []trace.WriterOption
		if data[0]&1 == 1 {
			opts = append(opts, trace.WithCompression())
		}
		var buf bytes.Buffer
		open := func(accepted []trace.Event) *trace.Writer {
			buf.Reset()
			w, err := trace.NewWriter(&buf, trace.Header{}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for i := range accepted {
				ev := accepted[i]
				if err := w.Append(&ev); err != nil {
					t.Fatalf("re-appending accepted event %v: %v", &accepted[i], err)
				}
			}
			return w
		}
		w := open(nil)
		var accepted []trace.Event
		for _, ev := range fuzzEvents(data[1:], 128) {
			in := ev
			switch err := w.Append(&ev); {
			case err == nil:
				if ev.Kind != trace.KindAlloc && ev != in {
					t.Fatalf("append rewrote %v to %v", &in, &ev)
				}
				accepted = append(accepted, ev)
			case errors.Is(err, trace.ErrInvalid):
				w = open(accepted)
			default:
				t.Fatalf("append %v: %v, want nil or ErrInvalid", &in, err)
			}
		}
		if err := w.Close(trace.Trailer{Events: uint64(len(accepted))}); err != nil {
			t.Fatal(err)
		}
		rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got trace.Event
		for i := 0; ; i++ {
			err := rd.Next(&got)
			if err == io.EOF {
				if i != len(accepted) {
					t.Fatalf("read back %d events, appended %d", i, len(accepted))
				}
				return
			}
			if err != nil {
				t.Fatalf("event %d (%v) was accepted but reads back as %v", i, &accepted[i], err)
			}
			if i >= len(accepted) || got != accepted[i] {
				t.Fatalf("event %d reads back as %v, appended %v", i, &got, &accepted[min(i, len(accepted)-1)])
			}
		}
	})
}
