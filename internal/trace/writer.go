package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"rdgc/internal/heap"
)

// Writer streams events into the trace format. It buffers at most one
// block (~32 KiB), never the whole trace. The caller must Close with the
// final trailer; a trace without a trailer reads back as truncated.
type Writer struct {
	w        io.Writer
	hdr      Header
	version  uint64
	compress bool
	buf      []byte   // current block's payload, sealed at blockTarget
	cbuf     []byte   // scratch for the compressed form of a block
	lz       *lzTable // match table, allocated when compression is on
	frame    []byte   // scratch for framing (length + crc) and the preamble
	nextID   uint64   // ID the next KindAlloc event will receive
	events   uint64
	closed   bool
	err      error // sticky first error
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithCompression makes the writer LZ-compress each block, keeping the
// compressed form only when it is actually smaller — incompressible
// blocks are stored raw, so a trace may freely mix both. Readers need no
// option; the per-block flag tells them which form each block took.
func WithCompression() WriterOption {
	return func(w *Writer) { w.compress = true }
}

// NewWriter writes the trace preamble (magic, version, header block) to w
// and returns a streaming event writer. It does not close w.
func NewWriter(w io.Writer, hdr Header, opts ...WriterOption) (*Writer, error) {
	return newWriterVersion(w, hdr, FormatVersion, opts...)
}

// newWriterVersion is NewWriter with the format version exposed, so tests
// can emit old-version traces and prove readers still accept them.
func newWriterVersion(w io.Writer, hdr Header, version uint64, opts ...WriterOption) (*Writer, error) {
	tw := &Writer{w: w, hdr: hdr, version: version}
	for _, opt := range opts {
		opt(tw)
	}
	if tw.compress {
		if version < 2 {
			return nil, fmt.Errorf("%w: version %d has no compression flag", ErrVersion, version)
		}
		tw.lz = new(lzTable)
	}
	tw.frame = append(tw.frame[:0], magic[:]...)
	tw.frame = binary.AppendUvarint(tw.frame, version)
	if _, err := w.Write(tw.frame); err != nil {
		return nil, err
	}
	var flags uint64
	if hdr.Census {
		flags |= 1
	}
	tw.buf = binary.AppendUvarint(tw.buf, flags)
	tw.buf = binary.AppendUvarint(tw.buf, uint64(len(hdr.Meta)))
	for _, e := range hdr.Meta {
		tw.buf = appendString(tw.buf, e.Key)
		tw.buf = appendString(tw.buf, e.Value)
	}
	if err := tw.flushBlock(); err != nil {
		return nil, err
	}
	return tw, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// flushBlock frames and writes the buffered payload, if any.
func (w *Writer) flushBlock() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	payload, flag := w.buf, uint64(0)
	if w.compress {
		w.cbuf = binary.AppendUvarint(w.cbuf[:0], uint64(len(w.buf)))
		w.cbuf = lzAppend(w.cbuf, w.buf, w.lz)
		if len(w.cbuf) < len(w.buf) {
			payload, flag = w.cbuf, 1
		}
	}
	if w.version >= 2 {
		w.frame = binary.AppendUvarint(w.frame[:0], uint64(len(payload))<<1|flag)
	} else {
		w.frame = binary.AppendUvarint(w.frame[:0], uint64(len(payload)))
	}
	w.frame = binary.LittleEndian.AppendUint32(w.frame, crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(w.frame); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = err
		return err
	}
	w.buf = w.buf[:0]
	return nil
}

// Events returns the number of events appended so far.
func (w *Writer) Events() uint64 { return w.events }

// Header returns the header the writer opened the trace with.
func (w *Writer) Header() Header { return w.hdr }

// Append encodes one event. For KindAlloc it assigns the object its
// allocation-order ID and stores it in ev.Obj. Events the reader would
// reject — an unallocated object reference, a free-block type, a size,
// slot, depth or session index out of range — fail with ErrInvalid.
//
// Append only dispatches: each kind has one encoder, which validates the
// event and appends its bytes, and the recorder and the synthesis merger
// call those encoders directly, with no Event in between.
func (w *Writer) Append(ev *Event) error {
	switch ev.Kind {
	case KindAlloc:
		id, err := w.alloc(ev.Type, ev.Size)
		if err == nil {
			ev.Obj = id
		}
		return err
	case KindStore:
		return w.store(ev.Obj, ev.Slot, ev.Val)
	case KindFill:
		return w.fill(ev.Obj, ev.Val)
	case KindRaw:
		return w.raw(ev.Obj, ev.Slot, ev.Val.Bits)
	case KindIntern:
		return w.intern(ev.Obj, ev.Name)
	case KindPush, KindGlobal:
		return w.root(ev.Kind, ev.Val)
	case KindPopTo:
		return w.popTo(ev.Size)
	case KindSet:
		return w.set(ev.Ref, ev.Val)
	case KindCollect:
		return w.collect(ev.Full)
	case KindSession:
		return w.session(ev.Size)
	}
	if err := w.usable(); err != nil {
		return err
	}
	return w.invalid("unknown kind %d", ev.Kind)
}

// The encoders, one per kind. Each checks that the writer is open, then
// every operand against what the reader accepts, then appends the opcode
// and the operands and commits the event; nothing is written for an event
// that fails a check. An encoder that allocates returns the ID it assigned.

func (w *Writer) alloc(t heap.Type, size int) (uint64, error) {
	if err := w.usable(); err != nil {
		return 0, err
	}
	if t >= heap.TFree {
		return 0, w.invalid("allocation of type %d", t)
	}
	if uint(size) > maxBlock {
		return 0, w.invalid("allocation size %d outside [0, %d]", size, maxBlock)
	}
	id := w.nextID
	w.nextID++
	return id, w.commit(binary.AppendUvarint(append(w.buf, byte(KindAlloc), byte(t)), uint64(size)))
}

func (w *Writer) store(obj uint64, slot int, v Value) error {
	if err := w.usable(); err != nil {
		return err
	}
	if obj >= w.nextID {
		return w.unallocated(obj)
	}
	if slot < 0 {
		return w.invalid("negative slot %d", slot)
	}
	if v.IsObj && v.Bits >= w.nextID {
		return w.unallocated(v.Bits)
	}
	b := w.appendObj(append(w.buf, byte(KindStore)), obj)
	b = binary.AppendUvarint(b, uint64(slot))
	return w.commit(w.appendValue(b, v))
}

func (w *Writer) fill(obj uint64, v Value) error {
	if err := w.usable(); err != nil {
		return err
	}
	if obj >= w.nextID {
		return w.unallocated(obj)
	}
	if v.IsObj && v.Bits >= w.nextID {
		return w.unallocated(v.Bits)
	}
	return w.commit(w.appendValue(w.appendObj(append(w.buf, byte(KindFill)), obj), v))
}

func (w *Writer) raw(obj uint64, slot int, bits uint64) error {
	if err := w.usable(); err != nil {
		return err
	}
	if obj >= w.nextID {
		return w.unallocated(obj)
	}
	if slot < 0 {
		return w.invalid("negative slot %d", slot)
	}
	b := w.appendObj(append(w.buf, byte(KindRaw)), obj)
	b = binary.AppendUvarint(b, uint64(slot))
	return w.commit(binary.LittleEndian.AppendUint64(b, bits))
}

// maxName bounds a symbol name so that the block holding it stays within
// maxBlock: a block is sealed once it reaches blockTarget, and the name's
// opcode, object delta and length take at most 21 bytes.
const maxName = maxBlock - blockTarget - 2*binary.MaxVarintLen64

func (w *Writer) intern(obj uint64, name string) error {
	if err := w.usable(); err != nil {
		return err
	}
	if obj >= w.nextID {
		return w.unallocated(obj)
	}
	if len(name) > maxName {
		return w.invalid("symbol name of %d bytes exceeds %d", len(name), maxName)
	}
	return w.commit(appendString(w.appendObj(append(w.buf, byte(KindIntern)), obj), name))
}

// root encodes KindPush and KindGlobal, which differ only in the opcode.
func (w *Writer) root(k Kind, v Value) error {
	if err := w.usable(); err != nil {
		return err
	}
	if v.IsObj && v.Bits >= w.nextID {
		return w.unallocated(v.Bits)
	}
	return w.commit(w.appendValue(append(w.buf, byte(k)), v))
}

func (w *Writer) popTo(depth int) error {
	if err := w.usable(); err != nil {
		return err
	}
	if depth < 0 {
		return w.invalid("negative handle-stack depth %d", depth)
	}
	return w.commit(binary.AppendUvarint(append(w.buf, byte(KindPopTo)), uint64(depth)))
}

func (w *Writer) set(ref int32, v Value) error {
	if err := w.usable(); err != nil {
		return err
	}
	if v.IsObj && v.Bits >= w.nextID {
		return w.unallocated(v.Bits)
	}
	b := binary.AppendUvarint(append(w.buf, byte(KindSet)), zenc(int64(ref)))
	return w.commit(w.appendValue(b, v))
}

func (w *Writer) collect(full bool) error {
	if err := w.usable(); err != nil {
		return err
	}
	f := byte(0)
	if full {
		f = 1
	}
	return w.commit(append(w.buf, byte(KindCollect), f))
}

func (w *Writer) session(sess int) error {
	if err := w.usable(); err != nil {
		return err
	}
	if w.version < 2 {
		return w.invalid("version %d has no session events", w.version)
	}
	if uint(sess) > maxBlock {
		return w.invalid("session index %d outside [0, %d]", sess, maxBlock)
	}
	return w.commit(binary.AppendUvarint(append(w.buf, byte(KindSession)), uint64(sess)))
}

// commit adopts b, the block with one more event appended, and seals the
// block once it reaches blockTarget.
func (w *Writer) commit(b []byte) error {
	w.buf = b
	w.events++
	if len(b) >= blockTarget {
		return w.flushBlock()
	}
	return nil
}

// usable returns the writer's sticky error, and refuses any append after
// Close.
func (w *Writer) usable() error {
	if w.err != nil || w.closed {
		return w.unusable()
	}
	return nil
}

//go:noinline
func (w *Writer) unusable() error {
	if w.err == nil {
		w.err = fmt.Errorf("%w: append after Close", ErrInvalid)
	}
	return w.err
}

// invalid makes an ErrInvalid the writer's sticky error. It is every
// encoder's failure exit, kept out of line so none of them carries error
// formatting.
//
//go:noinline
func (w *Writer) invalid(format string, args ...any) error {
	w.err = fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
	return w.err
}

//go:noinline
func (w *Writer) unallocated(id uint64) error {
	return w.invalid("reference to unallocated object #%d", id)
}

// appendObj delta-encodes a target object ID, already checked to be
// allocated, against the most recently allocated object.
func (w *Writer) appendObj(b []byte, id uint64) []byte {
	return binary.AppendUvarint(b, w.nextID-1-id)
}

// appendValue encodes an operand, already checked to reference an
// allocated object if it references one at all: a discriminator byte, then
// the object's delta (1) or the immediate, zigzagged (0) so that negative
// fixnums — sign-extended word bits — stay short.
func (w *Writer) appendValue(b []byte, v Value) []byte {
	d, u := byte(0), zenc(int64(v.Bits))
	if v.IsObj {
		d, u = 1, w.nextID-1-v.Bits
	}
	return binary.AppendUvarint(append(b, d), u)
}

// Close seals the final block and writes the terminator and trailer. The
// trailer's event count must match the number of appended events.
func (w *Writer) Close(tr Trailer) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	if tr.Events != w.events {
		w.err = fmt.Errorf("%w: trailer says %d events, wrote %d", ErrInvalid, tr.Events, w.events)
		return w.err
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	w.closed = true
	w.frame = binary.AppendUvarint(w.frame[:0], 0) // terminator
	body := binary.AppendUvarint(nil, tr.WordsAllocated)
	body = binary.AppendUvarint(body, tr.ObjectsAllocated)
	body = binary.AppendUvarint(body, tr.Events)
	w.frame = append(w.frame, body...)
	w.frame = binary.LittleEndian.AppendUint32(w.frame, crc32.ChecksumIEEE(body))
	if _, err := w.w.Write(w.frame); err != nil {
		w.err = err
		return err
	}
	return nil
}
