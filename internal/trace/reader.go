package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"rdgc/internal/heap"
)

// Reader streams events back out of a trace. It holds at most one block
// in memory and reuses that buffer, so the steady-state read path does not
// allocate (KindIntern's symbol name is the one exception). Errors are
// sticky and wrap the package sentinels.
type Reader struct {
	br     *bufio.Reader
	hdr    Header
	blk    []byte  // current block payload (buffer reused across blocks)
	cbuf   []byte  // compressed-block staging buffer, likewise reused
	crc    [4]byte // checksum staging; a local would escape through io.ReadFull
	pos    int     // decode cursor within blk
	nextID uint64  // mirrors the writer's allocation counter
	events uint64
	stored uint64 // payload bytes as framed on the wire
	raw    uint64 // payload bytes after decompression
	tr     Trailer
	done   bool
	err    error
}

// NewReader checks the preamble and decodes the header block. The reader
// buffers r itself; it does not close it.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{br: bufio.NewReaderSize(r, 64<<10)}
	var m [8]byte
	if _, err := io.ReadFull(tr.br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrTruncated, err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	version, err := binary.ReadUvarint(tr.br)
	if err != nil {
		return nil, fmt.Errorf("%w: reading version: %v", ErrTruncated, err)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: got version %d, support %d", ErrVersion, version, FormatVersion)
	}
	if err := tr.readBlock(); err != nil {
		return nil, err
	}
	if tr.done {
		return nil, fmt.Errorf("%w: missing header block", ErrCorrupt)
	}
	if err := tr.decodeHeader(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Header returns the trace's decoded header.
func (r *Reader) Header() Header { return r.hdr }

// Events returns the number of events decoded so far.
func (r *Reader) Events() uint64 { return r.events }

// StoredBytes returns the block payload bytes read off the wire so far,
// and RawBytes the bytes those payloads decompressed to; their ratio is
// the stream's read amplification (1.0 for an uncompressed trace).
func (r *Reader) StoredBytes() uint64 { return r.stored }

// RawBytes returns the decompressed block payload bytes read so far.
func (r *Reader) RawBytes() uint64 { return r.raw }

// Trailer returns the recorded end-state statistics. It is valid only
// after Next has returned io.EOF.
func (r *Reader) Trailer() Trailer { return r.tr }

// fail records and returns the reader's sticky error.
func (r *Reader) fail(sentinel error, format string, args ...any) error {
	r.err = fmt.Errorf("%w: %s", sentinel, fmt.Sprintf(format, args...))
	return r.err
}

// readBlock loads the next framed block into r.blk, or decodes the
// trailer (setting done) when it hits the terminator.
func (r *Reader) readBlock() error {
	u, err := binary.ReadUvarint(r.br)
	if err != nil {
		return r.fail(ErrTruncated, "reading block length: %v", err)
	}
	n, compressed := u>>1, u&1 == 1
	if n == 0 {
		if compressed {
			return r.fail(ErrCorrupt, "compressed terminator frame")
		}
		return r.readTrailer()
	}
	if n > maxBlock {
		return r.fail(ErrCorrupt, "block length %d exceeds limit", n)
	}
	if _, err := io.ReadFull(r.br, r.crc[:]); err != nil {
		return r.fail(ErrTruncated, "reading block checksum: %v", err)
	}
	want := binary.LittleEndian.Uint32(r.crc[:])
	dst := &r.blk
	if compressed {
		dst = &r.cbuf
	}
	if cap(*dst) < int(n) {
		*dst = make([]byte, n)
	}
	*dst = (*dst)[:n]
	if _, err := io.ReadFull(r.br, *dst); err != nil {
		return r.fail(ErrTruncated, "reading %d-byte block: %v", n, err)
	}
	// The CRC covers the stored bytes, so corruption is caught before the
	// decompressor ever sees the payload.
	if got := crc32.ChecksumIEEE(*dst); got != want {
		return r.fail(ErrCorrupt, "block checksum mismatch: %#x != %#x", got, want)
	}
	r.stored += n
	if compressed {
		rawLen, m := binary.Uvarint(r.cbuf)
		if m <= 0 || rawLen == 0 || rawLen > maxBlock {
			return r.fail(ErrCorrupt, "bad compressed-block raw length")
		}
		if cap(r.blk) < int(rawLen) {
			r.blk = make([]byte, rawLen)
		}
		r.blk = r.blk[:rawLen]
		if !lzDecode(r.blk, r.cbuf[m:]) {
			return r.fail(ErrCorrupt, "compressed block does not decode to %d bytes", rawLen)
		}
	}
	r.raw += uint64(len(r.blk))
	r.pos = 0
	return nil
}

// readTrailer decodes and checks the trailer that follows the terminator.
func (r *Reader) readTrailer() error {
	var body [3 * binary.MaxVarintLen64]byte
	n := 0
	read := func() uint64 {
		v, err := binary.ReadUvarint(r.br)
		if err != nil {
			r.err = err
			return 0
		}
		// Re-encode to checksum the exact canonical bytes; a non-minimal
		// varint re-encodes differently and fails the CRC below.
		n += binary.PutUvarint(body[n:], v)
		return v
	}
	r.tr.WordsAllocated = read()
	r.tr.ObjectsAllocated = read()
	r.tr.Events = read()
	if r.err != nil {
		err := r.err
		r.err = nil
		return r.fail(ErrTruncated, "reading trailer: %v", err)
	}
	if _, err := io.ReadFull(r.br, r.crc[:]); err != nil {
		return r.fail(ErrTruncated, "reading trailer checksum: %v", err)
	}
	if got := crc32.ChecksumIEEE(body[:n]); got != binary.LittleEndian.Uint32(r.crc[:]) {
		return r.fail(ErrCorrupt, "trailer checksum mismatch")
	}
	if r.tr.Events != r.events {
		return r.fail(ErrCorrupt, "trailer says %d events, stream had %d", r.tr.Events, r.events)
	}
	// The trailer ends the trace: a byte after it would go unchecked.
	if extra, err := io.Copy(io.Discard, r.br); err != nil {
		return r.fail(ErrTruncated, "reading past trailer: %v", err)
	} else if extra > 0 {
		return r.fail(ErrCorrupt, "%d bytes after trailer", extra)
	}
	r.done = true
	return nil
}

func (r *Reader) decodeHeader() error {
	flags, err := r.uvarint()
	if err != nil {
		return err
	}
	r.hdr.Census = flags&1 != 0
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count > maxBlock {
		return r.fail(ErrCorrupt, "absurd metadata count %d", count)
	}
	for i := uint64(0); i < count; i++ {
		k, err := r.string()
		if err != nil {
			return err
		}
		v, err := r.string()
		if err != nil {
			return err
		}
		r.hdr.Meta = append(r.hdr.Meta, MetaEntry{Key: k, Value: v})
	}
	if r.pos != len(r.blk) {
		return r.fail(ErrCorrupt, "%d trailing bytes in header block", len(r.blk)-r.pos)
	}
	// The header block is consumed; arm Next to load the first event block.
	r.blk = r.blk[:0]
	r.pos = 0
	return nil
}

// uvarint decodes one varint from the current block.
func (r *Reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.blk[r.pos:])
	if n <= 0 {
		return 0, r.fail(ErrCorrupt, "bad varint at block offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *Reader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.blk)-r.pos) {
		return "", r.fail(ErrCorrupt, "string length %d overruns block", n)
	}
	s := string(r.blk[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// fault names one way an event can fail to decode; Next routes every such
// failure through corrupt, which turns it into the reader's sticky error.
type fault uint8

const (
	faultOverrun   fault = iota // the block ends inside the event
	faultVarint                 // arg: block offset of the bad varint
	faultDelta                  // arg: the object delta
	faultValueKind              // arg: the value discriminator
	faultAllocSize              // arg: the size
	faultAllocType              // arg: the type byte
	faultRawBits                // fewer than 8 bytes left for KindRaw's bits
	faultString                 // arg: the string length
	faultSession                // arg: the session index
	faultOpcode                 // arg: the opcode
)

// corrupt is Next's one failure exit, kept out of line so the decoder
// carries no error formatting.
//
//go:noinline
func (r *Reader) corrupt(f fault, arg uint64) error {
	switch f {
	case faultOverrun:
		return r.fail(ErrCorrupt, "event overruns block")
	case faultVarint:
		return r.fail(ErrCorrupt, "bad varint at block offset %d", arg)
	case faultDelta:
		return r.fail(ErrCorrupt, "object delta %d references before the first allocation", arg)
	case faultValueKind:
		return r.fail(ErrCorrupt, "bad value discriminator %d", arg)
	case faultAllocSize:
		return r.fail(ErrCorrupt, "absurd allocation size %d", arg)
	case faultAllocType:
		// TFree marks dead blocks; no mutator allocates one.
		return r.fail(ErrCorrupt, "bad allocation type %d", arg)
	case faultRawBits:
		return r.fail(ErrCorrupt, "raw bits overrun block")
	case faultString:
		return r.fail(ErrCorrupt, "string length %d overruns block", arg)
	case faultSession:
		return r.fail(ErrCorrupt, "absurd session index %d", arg)
	}
	return r.fail(ErrCorrupt, "unknown event opcode %d", arg)
}

// uvarint1 decodes the varint at blk[pos:] when it is one, two or three
// bytes long and the block has three bytes left, and is small enough to
// inline into Next. That covers every varint of a recorded or amplified
// decay session (set refs and value immediates run to three). n is 0 when the
// varint is longer or lies within two bytes of the block's end, and
// uvarintLong must decide.
func uvarint1(blk []byte, pos int) (v uint64, n int) {
	if pos+2 < len(blk) {
		b0, b1, b2 := blk[pos], blk[pos+1], blk[pos+2]
		if b0 < 0x80 {
			return uint64(b0), 1
		}
		if b1 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1)<<7, 2
		}
		if b2 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1&0x7f)<<7 | uint64(b2)<<14, 3
		}
	}
	return 0, 0
}

// uvarintLong is binary.Uvarint at blk[pos:], kept out of line so each of
// Next's decode sites is a call and not a copy of the loop: n <= 0 means a
// malformed varint or one that runs off the block.
//
//go:noinline
func uvarintLong(blk []byte, pos int) (v uint64, n int) { return binary.Uvarint(blk[pos:]) }

// Next decodes the next event into *ev. It returns io.EOF — and only then
// — after the whole trace, trailer included, has been read and verified.
//
// The decoder is one pass over a local copy of the block cursor: every
// bounds and range check of the format is made in line, a failed one
// leaves through corrupt, and the cursor is written back once.
func (r *Reader) Next(ev *Event) error {
	if r.err != nil {
		return r.err
	}
	for r.pos == len(r.blk) {
		if r.done {
			return io.EOF
		}
		if err := r.readBlock(); err != nil {
			return err
		}
	}
	blk, pos, nextID := r.blk, r.pos, r.nextID
	kind := Kind(blk[pos])
	pos++
	*ev = Event{Kind: kind}
	hasVal := false // the event ends with a Value operand
	switch kind {
	case KindAlloc:
		if pos >= len(blk) {
			return r.corrupt(faultOverrun, 0)
		}
		t := blk[pos]
		pos++
		size, n := uvarint1(blk, pos)
		if n == 0 {
			if size, n = uvarintLong(blk, pos); n <= 0 {
				return r.corrupt(faultVarint, uint64(pos))
			}
		}
		pos += n
		if size > maxBlock {
			return r.corrupt(faultAllocSize, size)
		}
		if heap.Type(t) >= heap.TFree {
			return r.corrupt(faultAllocType, uint64(t))
		}
		ev.Type, ev.Size, ev.Obj = heap.Type(t), int(size), nextID
		r.nextID = nextID + 1
	case KindStore, KindFill, KindRaw, KindIntern:
		// All four lead with the target object, delta-coded against the
		// most recent allocation.
		delta, n := uvarint1(blk, pos)
		if n == 0 {
			if delta, n = uvarintLong(blk, pos); n <= 0 {
				return r.corrupt(faultVarint, uint64(pos))
			}
		}
		if delta >= nextID {
			return r.corrupt(faultDelta, delta)
		}
		pos += n
		ev.Obj = nextID - 1 - delta
		switch kind {
		case KindStore, KindRaw:
			slot, n := uvarint1(blk, pos)
			if n == 0 {
				if slot, n = uvarintLong(blk, pos); n <= 0 {
					return r.corrupt(faultVarint, uint64(pos))
				}
			}
			pos += n
			ev.Slot = int(slot)
			if kind == KindStore {
				hasVal = true
			} else {
				if pos+8 > len(blk) {
					return r.corrupt(faultRawBits, 0)
				}
				ev.Val.Bits = binary.LittleEndian.Uint64(blk[pos:])
				pos += 8
			}
		case KindFill:
			hasVal = true
		case KindIntern:
			size, n := uvarint1(blk, pos)
			if n == 0 {
				if size, n = uvarintLong(blk, pos); n <= 0 {
					return r.corrupt(faultVarint, uint64(pos))
				}
			}
			pos += n
			if size > uint64(len(blk)-pos) {
				return r.corrupt(faultString, size)
			}
			ev.Name = string(blk[pos : pos+int(size)])
			pos += int(size)
		}
	case KindPush, KindGlobal:
		hasVal = true
	case KindPopTo:
		depth, n := uvarint1(blk, pos)
		if n == 0 {
			if depth, n = uvarintLong(blk, pos); n <= 0 {
				return r.corrupt(faultVarint, uint64(pos))
			}
		}
		pos += n
		ev.Size = int(depth)
	case KindSet:
		ref, n := uvarint1(blk, pos)
		if n == 0 {
			if ref, n = uvarintLong(blk, pos); n <= 0 {
				return r.corrupt(faultVarint, uint64(pos))
			}
		}
		pos += n
		ev.Ref = int32(zdec(ref))
		hasVal = true
	case KindCollect:
		if pos >= len(blk) {
			return r.corrupt(faultOverrun, 0)
		}
		ev.Full = blk[pos] != 0
		pos++
	case KindSession:
		sess, n := uvarint1(blk, pos)
		if n == 0 {
			if sess, n = uvarintLong(blk, pos); n <= 0 {
				return r.corrupt(faultVarint, uint64(pos))
			}
		}
		pos += n
		if sess > maxBlock {
			return r.corrupt(faultSession, sess)
		}
		ev.Size = int(sess)
	default:
		return r.corrupt(faultOpcode, uint64(kind))
	}
	if hasVal {
		// A Value is a discriminator byte, then a zigzag immediate (0) or a
		// delta-coded object (1).
		if pos >= len(blk) {
			return r.corrupt(faultOverrun, 0)
		}
		d := blk[pos]
		pos++
		if d > 1 {
			return r.corrupt(faultValueKind, uint64(d))
		}
		u, n := uvarint1(blk, pos)
		if n == 0 {
			if u, n = uvarintLong(blk, pos); n <= 0 {
				return r.corrupt(faultVarint, uint64(pos))
			}
		}
		pos += n
		if d == 0 {
			ev.Val.Bits = uint64(zdec(u))
		} else {
			if u >= nextID {
				return r.corrupt(faultDelta, u)
			}
			ev.Val = Value{IsObj: true, Bits: nextID - 1 - u}
		}
	}
	r.pos = pos
	r.events++
	return nil
}

// Drain reads and discards all remaining events, returning the trailer.
// cmd/gctrace stat and tests use it to validate a whole trace cheaply.
func (r *Reader) Drain() (Trailer, error) {
	var ev Event
	for {
		switch err := r.Next(&ev); err {
		case nil:
		case io.EOF: // Next returns it bare
			return r.tr, nil
		default:
			return Trailer{}, err
		}
	}
}
