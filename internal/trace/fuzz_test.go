package trace_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rdgc/internal/trace"
)

// FuzzTraceReader feeds arbitrary bytes to the trace reader: it must
// either decode cleanly or fail with one of the package sentinels —
// never panic, never return an unwrapped error — and Next must agree with
// the reference decoder (diffDecoders) on every event, on the sentinel
// that ends the stream and on the event index where it ends. Seeds cover
// both wire versions, compressed and uncompressed blocks, synthesized
// session streams (via the checked-in corpus), and truncations.
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
		for _, input := range [][]byte{data, craftTrace(trace.FormatVersion, data, 0)} {
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
