package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"rdgc/internal/heap"
)

// Writer streams events into the trace format. It buffers at most two
// blocks (~32 KiB each), never the whole trace: the one being encoded and
// the one sealed before it. With compression on, a sealed block is
// compressed and checksummed on a goroutine of its own while the caller
// encodes the next, and the caller writes it, in block order, at the next
// seal or at Close; so a write error, sticky as ever, is returned one seal
// later, by the encoder whose event seals the next block or by Close. Every
// Write to the underlying io.Writer is made on the caller's goroutine, so
// it need not be safe for concurrent use. The caller must Close with the
// final trailer; a trace without a trailer reads back as truncated.
type Writer struct {
	w        io.Writer
	hdr      Header
	compress bool
	buf      []byte        // the block being encoded, sealed at blockTarget
	sealed   sealedBlock   // the block sealed before it
	inFlight bool          // a goroutine is finishing sealed
	done     chan struct{} // that goroutine is finished with it
	work     func()        // that goroutine: sealed.finish, then a send on done
	frame    []byte        // scratch for framing (length + crc) and the preamble
	nextID   uint64        // ID the next KindAlloc event will receive
	events   uint64
	closed   bool
	err      error // sticky first error
}

// sealedBlock is a block between its seal and its write. A goroutine
// finishing it owns it from the seal until it signals done; only then does
// the caller read payload, flag and crc.
type sealedBlock struct {
	raw      []byte   // the payload as encoded
	compress bool     // the writer's setting at the seal
	z        []byte   // scratch for the compressed form
	lz       *lzTable // match table, allocated by the first compressed block
	payload  []byte   // what is written: raw, or z when that is smaller
	flag     uint64   // 1 when payload is z
	crc      uint32   // payload's checksum
}

// finish picks the block's stored form and checksums it. The compressed
// form is the raw length, then the LZ sequences, kept only when it is
// smaller than the raw payload.
func (b *sealedBlock) finish() {
	b.payload, b.flag = b.raw, 0
	if b.compress {
		if b.lz == nil {
			b.lz = new(lzTable)
		}
		b.z = binary.AppendUvarint(b.z[:0], uint64(len(b.raw)))
		b.z = lzAppend(b.z, b.raw, b.lz)
		if len(b.z) < len(b.raw) {
			b.payload, b.flag = b.z, 1
		}
	}
	b.crc = crc32.ChecksumIEEE(b.payload)
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

// NewWriter writes the trace preamble (magic, version) to w, seals the
// header block like any other, and returns a streaming event writer. It
// does not close w.
func NewWriter(w io.Writer, hdr Header, opts ...WriterOption) (*Writer, error) {
	tw := &Writer{w: w, hdr: hdr, done: make(chan struct{}, 1)}
	tw.work = func() {
		tw.sealed.finish()
		tw.done <- struct{}{}
	}
	for _, opt := range opts {
		opt(tw)
	}
	tw.frame = append(tw.frame[:0], magic[:]...)
	tw.frame = binary.AppendUvarint(tw.frame, FormatVersion)
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

// flushBlock seals the block being encoded, if it holds anything, after
// writing the block sealed before it. A block to be compressed goes to a
// goroutine that finishes it while the caller goes on to the next; the
// goroutine returns once it has signalled done, so an abandoned Writer
// leaves none behind. A raw block is finished and written at once: its
// checksum costs less in line than the block's trip to another CPU, which
// made raw recording a tenth slower.
func (w *Writer) flushBlock() error {
	if err := w.drain(); err != nil || len(w.buf) == 0 {
		return err
	}
	w.buf, w.sealed.raw = w.sealed.raw[:0], w.buf
	w.sealed.compress = w.compress
	if !w.compress {
		w.sealed.finish()
		return w.write()
	}
	w.inFlight = true
	go w.work()
	return nil
}

// drain waits for the goroutine finishing the sealed block, if one is
// running, then writes the block.
func (w *Writer) drain() error {
	if !w.inFlight {
		return w.err
	}
	<-w.done
	w.inFlight = false
	return w.write()
}

// write frames and writes the finished sealed block.
func (w *Writer) write() error {
	if w.err != nil {
		return w.err
	}
	b := &w.sealed
	w.frame = binary.AppendUvarint(w.frame[:0], uint64(len(b.payload))<<1|b.flag)
	w.frame = binary.LittleEndian.AppendUint32(w.frame, b.crc)
	if _, err := w.w.Write(w.frame); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(b.payload); err != nil {
		w.err = err
		return err
	}
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

// Close seals the final block, writes it and any block before it still
// unwritten, then the terminator and trailer. The trailer's event count
// must match the number of appended events.
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
	if err := w.drain(); err != nil {
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
