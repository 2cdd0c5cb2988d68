// Package trace records and replays mutator workloads: every allocation,
// pointer store, and root operation a program performs against the
// simulated heap is captured as a stream of events in a versioned binary
// format, and can later be replayed — bit-deterministically — against any
// collector in the repository. Recording decouples workload generation
// from collection policy exactly as the paper's trace-driven comparisons
// do: capture a benchmark once, then evaluate every collector on the
// identical event stream.
//
// The wire format is streaming on both sides. A trace is:
//
//	magic "rdgctrc\x00" | uvarint version | header block | event blocks...
//	| uvarint 0 (terminator) | trailer
//
// Every block is framed as uvarint(stored length << 1 | compressed flag)
// + 4-byte little-endian CRC32 (IEEE) of the stored payload + the stored
// payload itself, so truncation and corruption are detected block by
// block without buffering the whole trace. A compressed block's stored
// payload is uvarint(raw length) followed by the LZ-coded raw payload
// (see compress.go); the CRC always covers the bytes on the wire. The
// header payload carries
// a census flag plus ordered key/value metadata strings; event payloads
// are back-to-back varint-encoded events with object IDs
// delta-compressed against the most recently allocated object. The
// trailer repeats the final mutator statistics and event count (with its
// own CRC), so a replay can prove it reproduced the recorded run — and a
// reader can prove it saw the whole trace.
package trace

import "errors"

// FormatVersion is the trace format this package writes and the only one
// it reads: readers reject any other version with ErrVersion. Any change to
// framing or event encoding must bump it — there are no in-version
// extensions.
//
// Version history:
//
//	1: original framing (a bare uvarint payload length), uncompressed
//	   blocks only; no longer read or written
//	2: per-block compression flag in the frame varint; KindSession events
const FormatVersion = 2

// magic opens every trace file.
var magic = [8]byte{'r', 'd', 'g', 'c', 't', 'r', 'c', 0}

const (
	// blockTarget is the payload size at which the writer seals a block.
	blockTarget = 32 << 10
	// maxBlock bounds the payload length a reader will believe; a framed
	// length beyond it is corruption, not a request for memory.
	maxBlock = 1 << 24
)

// Sentinel errors. Readers wrap these with context; match with errors.Is.
var (
	// ErrBadMagic means the input is not a trace file at all.
	ErrBadMagic = errors.New("trace: bad magic, not a trace file")
	// ErrVersion means the trace was written by an incompatible format
	// version.
	ErrVersion = errors.New("trace: unsupported format version")
	// ErrCorrupt means framing, checksums, or event encoding are invalid.
	ErrCorrupt = errors.New("trace: corrupt input")
	// ErrTruncated means the input ended before the trailer.
	ErrTruncated = errors.New("trace: truncated input")
	// ErrDrift means a replayed heap did not reproduce the recorded run's
	// mutator statistics or event count.
	ErrDrift = errors.New("trace: replay drifted from the recorded run")
	// ErrInvalid means an event handed to the writer (or applied by the
	// replayer) is inconsistent, e.g. it references an unallocated object.
	ErrInvalid = errors.New("trace: invalid event")
)

// Header is the self-describing preamble of a trace.
type Header struct {
	// Census records whether the heap carried per-object birth stamps;
	// replay heaps must match, since the hidden census word changes
	// allocation sizes and therefore collection timing.
	Census bool
	// Meta is ordered key/value metadata (workload name, heap sizing,
	// recording collector). Order is preserved so identical recordings
	// produce identical bytes.
	Meta []MetaEntry
}

// MetaEntry is one header metadata pair.
type MetaEntry struct{ Key, Value string }

// Lookup returns the value of the first metadata entry with the given key.
func (h *Header) Lookup(key string) (string, bool) {
	for _, e := range h.Meta {
		if e.Key == key {
			return e.Value, true
		}
	}
	return "", false
}

// Trailer carries the recorded run's end state: the mutator statistics and
// the number of events in the trace.
type Trailer struct {
	WordsAllocated   uint64
	ObjectsAllocated uint64
	Events           uint64
}

// zigzag encoding for signed operands (root refs, raw words whose high
// bits are usually sign extension).
func zenc(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func zdec(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
