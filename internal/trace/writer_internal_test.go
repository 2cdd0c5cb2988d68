package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rdgc/internal/heap"
)

// referenceWriter drives a Writer's encoders but writes every block the way
// the Writer did before its seals were pipelined: at the seal, on the
// caller's goroutine, through flushBlockReference. The embedded Writer
// compresses throughout, so every block it seals waits in flight, unwritten,
// until settle takes it back; none of the Writer's own block writes (finish's
// output, write) reaches the reference's bytes. Its compress field, which
// the embedded one's shadows, is the setting flushBlockReference applies.
type referenceWriter struct {
	*Writer
	out      io.Writer
	compress bool
	cbuf     []byte
	frame    []byte
	lz       lzTable
}

// settle writes the block the Writer sealed last, if it has not yet been
// written, through flushBlockReference.
func (r *referenceWriter) settle(t *testing.T) {
	t.Helper()
	if !r.inFlight {
		return
	}
	<-r.done
	r.inFlight = false
	if err := r.flushBlockReference(r.sealed.raw, r.compress); err != nil {
		t.Fatal(err)
	}
}

// flushBlockReference is the Writer's block write as it stood before a
// sealed block was compressed beside the encoder, verbatim but for taking
// the block and the compression setting as arguments and leaving the
// sticky error to its caller: the specification TestWriterMatchesReference
// holds the pipelined writer to, byte for byte.
func (r *referenceWriter) flushBlockReference(buf []byte, compress bool) error {
	if len(buf) == 0 {
		return nil
	}
	payload, flag := buf, uint64(0)
	if compress {
		r.cbuf = binary.AppendUvarint(r.cbuf[:0], uint64(len(buf)))
		r.cbuf = lzAppend(r.cbuf, buf, &r.lz)
		if len(r.cbuf) < len(buf) {
			payload, flag = r.cbuf, 1
		}
	}
	r.frame = binary.AppendUvarint(r.frame[:0], uint64(len(payload))<<1|flag)
	r.frame = binary.LittleEndian.AppendUint32(r.frame, crc32.ChecksumIEEE(payload))
	if _, err := r.out.Write(r.frame); err != nil {
		return err
	}
	if _, err := r.out.Write(payload); err != nil {
		return err
	}
	return nil
}

// callerWriter is an io.Writer that keeps its state without any
// synchronisation, and the tests that write through it read that state on
// their own goroutine after every event: under the race detector, a Write
// made on any other goroutine fails the test. It fails its fail-th call
// (counting from 1) when fail is set, and writes nothing after that.
type callerWriter struct {
	buf   bytes.Buffer
	calls int
	fail  int
}

var errWriteFailed = errors.New("test writer fails")

func (c *callerWriter) Write(p []byte) (int, error) {
	c.calls++
	if c.fail != 0 && c.calls >= c.fail {
		return 0, errWriteFailed
	}
	return c.buf.Write(p)
}

// writerScript is a stream of events for the writer tests, with the
// writer's compression setting to apply before each one.
type writerScript struct {
	evs      []Event
	compress []bool
	tr       Trailer
}

// newWriterScript builds n events of every kind. The last 1000 of every
// 5000 events intern random names, whose blocks do not shrink, so a
// compressing writer stores them raw. With toggle set the compression
// setting flips every 3001 events, off block boundaries, so the form of
// each block is the setting at its seal.
func newWriterScript(n int, compress, toggle bool, seed int64) writerScript {
	rng := rand.New(rand.NewSource(seed))
	var s writerScript
	var objects, words uint64
	depth := 0
	for i := 0; i < n; i++ {
		if toggle && i%3001 == 3000 {
			compress = !compress
		}
		var ev Event
		noise := i%5000 >= 4000
		switch k := rng.Intn(20); {
		case noise && objects > 0:
			name := make([]byte, 64)
			rng.Read(name)
			ev = Event{Kind: KindIntern, Obj: objects - 1, Name: string(name)}
		case objects == 0 || k < 6:
			size := rng.Intn(6)
			ev = Event{Kind: KindAlloc, Type: heap.TVector, Size: size}
			objects++
			words += 1 + uint64(size)
		case k < 9:
			ev = Event{Kind: KindStore, Obj: objects - 1 - uint64(rng.Intn(int(min(objects, 50)))), Slot: rng.Intn(6), Val: Obj(uint64(rng.Int63n(int64(objects))))}
		case k < 11:
			ev = Event{Kind: KindFill, Obj: objects - 1, Val: Imm(heap.Word(rng.Intn(1000) - 500))}
		case k < 14:
			ev = Event{Kind: KindRaw, Obj: objects - 1, Slot: rng.Intn(4), Val: Value{Bits: rng.Uint64()}}
		case k < 16:
			ev = Event{Kind: KindPush, Val: Obj(objects - 1)}
			depth++
		case k < 17:
			depth = rng.Intn(depth + 1)
			ev = Event{Kind: KindPopTo, Size: depth}
		case k < 18:
			ev = Event{Kind: KindSet, Ref: int32(rng.Intn(depth + 1)), Val: Imm(heap.Word(i))}
		case k < 19:
			ev = Event{Kind: KindCollect, Full: rng.Intn(2) == 0}
		default:
			ev = Event{Kind: KindSession, Size: rng.Intn(4)}
		}
		s.evs = append(s.evs, ev)
		s.compress = append(s.compress, compress)
	}
	s.tr = Trailer{WordsAllocated: words, ObjectsAllocated: objects, Events: uint64(n)}
	return s
}

// reference writes the script through a referenceWriter; like the writers
// under test, it starts compressing.
func (s writerScript) reference(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	w, err := NewWriter(&out, Header{}, WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	r := &referenceWriter{Writer: w, out: &out, compress: true}
	r.settle(t)
	for i := range s.evs {
		r.compress = s.compress[i]
		ev := s.evs[i]
		if err := r.Append(&ev); err != nil {
			t.Fatal(err)
		}
		r.settle(t)
	}
	if err := r.flushBlock(); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	if err := r.Close(s.tr); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// write runs the script through a Writer into out and returns the number
// of events appended before the first error, and that error. It checks
// that every error after the first is the same one and that nothing is
// written after it, and, after every event, that out's state is the
// caller's to read.
func (s writerScript) write(t *testing.T, out *callerWriter) (int, error) {
	t.Helper()
	w, err := NewWriter(out, Header{}, WithCompression())
	if err != nil {
		return 0, err
	}
	calls := out.calls
	for i := range s.evs {
		w.compress = s.compress[i]
		ev := s.evs[i]
		if err := w.Append(&ev); err != nil {
			// A seal leaves the block swapped out, or whole where the write
			// of the one before failed.
			if n := len(w.buf); n > 0 && n < blockTarget {
				t.Errorf("event %d: %v, not at a seal (block holds %d bytes)", i, err, n)
			}
			s.sticky(t, w, out, err)
			return i, err
		}
		if out.calls < calls {
			t.Fatalf("event %d: writer calls went back from %d to %d", i, calls, out.calls)
		}
		calls = out.calls
	}
	if err := w.Close(s.tr); err != nil {
		s.sticky(t, w, out, err)
		return len(s.evs), err
	}
	return len(s.evs), nil
}

func (s writerScript) sticky(t *testing.T, w *Writer, out *callerWriter, err error) {
	t.Helper()
	calls := out.calls
	ev := Event{Kind: KindCollect}
	if again := w.Append(&ev); again != err {
		t.Errorf("append after %v: got %v, want the same error", err, again)
	}
	if again := w.Close(s.tr); again != err {
		t.Errorf("Close after %v: got %v, want the same error", err, again)
	}
	if out.calls != calls {
		t.Errorf("%d writes after %v, want none", out.calls-calls, err)
	}
}

// TestWriterMatchesReference holds the pipelined writer to the in-line one
// it replaced, byte for byte: raw, compressed and toggled streams, each
// ending with a final block shorter than blockTarget and, when compressing,
// a block in flight at Close, and the edges — no events, a few, and an
// explicit seal just before Close, which leaves Close a block in flight and
// nothing to seal.
func TestWriterMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name             string
		n                int
		compress, toggle bool
		sealBeforeClose  bool
	}{
		{"raw", 40000, false, false, false},
		{"compressed", 40000, true, false, false},
		{"toggled", 40000, false, true, false},
		{"empty", 0, true, false, false},
		{"short", 7, true, false, false},
		{"sealed-before-close", 20000, true, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newWriterScript(tc.n, tc.compress, tc.toggle, 1)
			want := s.reference(t)
			var got callerWriter
			w, err := NewWriter(&got, Header{}, WithCompression())
			if err != nil {
				t.Fatal(err)
			}
			calls := got.calls
			for i := range s.evs {
				w.compress = s.compress[i]
				ev := s.evs[i]
				if err := w.Append(&ev); err != nil {
					t.Fatalf("event %d: %v", i, err)
				}
				if got.calls < calls {
					t.Fatalf("event %d: writer calls went back from %d to %d", i, calls, got.calls)
				}
				calls = got.calls
			}
			if tc.sealBeforeClose {
				if err := w.flushBlock(); err != nil {
					t.Fatal(err)
				}
				if !w.inFlight || len(w.buf) != 0 {
					t.Fatalf("after a seal: in flight %v, %d bytes buffered", w.inFlight, len(w.buf))
				}
			} else if tc.n > 0 && (w.inFlight != w.compress || len(w.buf) == 0 || len(w.buf) >= blockTarget) {
				t.Fatalf("before Close: in flight %v, compressing %v, %d bytes buffered; want a short block, and one in flight if compressing",
					w.inFlight, w.compress, len(w.buf))
			}
			if err := w.Close(s.tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.buf.Bytes(), want) {
				t.Fatalf("pipelined writer wrote %d bytes, the reference %d; first difference at %d",
					got.buf.Len(), len(want), firstDiff(got.buf.Bytes(), want))
			}
			rd, err := NewReader(bytes.NewReader(got.buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if tr, err := rd.Drain(); err != nil || tr.Events != uint64(tc.n) {
				t.Fatalf("read back %d events, err %v; want %d", tr.Events, err, tc.n)
			}
		})
	}
}

// TestWriterErrorIsSticky: a Writer whose io.Writer fails its k-th call —
// the preamble, the header block's frame, its payload, or the trailer —
// returns that error at the seal that made the call (one seal later for a
// compressed block) or at Close, returns it again from
// every later call, writes nothing more, and has written exactly a prefix
// of the reference's bytes.
func TestWriterErrorIsSticky(t *testing.T) {
	s := newWriterScript(30000, false, true, 2)
	want := s.reference(t)
	var ok callerWriter
	if _, err := s.write(t, &ok); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ok.buf.Bytes(), want) {
		t.Fatalf("writer and reference differ at byte %d", firstDiff(ok.buf.Bytes(), want))
	}
	for _, k := range []int{1, 2, 3, ok.calls} {
		out := callerWriter{fail: k}
		n, err := s.write(t, &out)
		if !errors.Is(err, errWriteFailed) {
			t.Fatalf("failing call %d: got %v after %d events, want the write error", k, err, n)
		}
		if out.calls != k {
			t.Errorf("failing call %d: %d calls made", k, out.calls)
		}
		if got := out.buf.Bytes(); !bytes.HasPrefix(want, got) {
			t.Errorf("failing call %d: the %d bytes written differ from the reference at %d", k, len(got), firstDiff(got, want))
		}
	}
}

// waitGoroutines waits, up to a few seconds, for the process to be back to
// base goroutines: a block's goroutine signals done just before it returns.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriterLeavesNoGoroutine: a sealed block's goroutine ends with its
// block, whether the writer is closed, fails, or is abandoned with a block
// in flight.
func TestWriterLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newWriterScript(20000, true, false, 3)
	var out callerWriter
	if _, err := s.write(t, &out); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "after Close")

	failing := callerWriter{fail: 4}
	if _, err := s.write(t, &failing); !errors.Is(err, errWriteFailed) {
		t.Fatalf("got %v, want the write error", err)
	}
	waitGoroutines(t, base, "after a write error")

	w, err := NewWriter(io.Discard, Header{}, WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; len(w.buf) != 0 || !w.inFlight || i == 0; i++ {
		ev := s.evs[i]
		if err := w.Append(&ev); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base, "after abandoning a writer with a block in flight")
}
