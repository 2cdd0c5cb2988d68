package trace

import (
	"encoding/binary"
	"io"

	"rdgc/internal/heap"
)

// The reference decoder: the cursor helpers and Next body that Reader.Next
// replaced, kept for tests only. The external test package reaches it
// through ReferenceNext.

// ReferenceNext exposes referenceNext to package trace_test.
func (r *Reader) ReferenceNext(ev *Event) error { return r.referenceNext(ev) }

// byte reads one raw byte from the current block.
func (r *Reader) byte() (byte, error) {
	if r.pos >= len(r.blk) {
		return 0, r.fail(ErrCorrupt, "event overruns block")
	}
	b := r.blk[r.pos]
	r.pos++
	return b, nil
}

// obj decodes a delta-compressed target object ID.
func (r *Reader) obj() (uint64, error) {
	delta, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if r.nextID == 0 || delta >= r.nextID {
		return 0, r.fail(ErrCorrupt, "object delta %d references before the first allocation", delta)
	}
	return r.nextID - 1 - delta, nil
}

func (r *Reader) value() (Value, error) {
	kind, err := r.byte()
	if err != nil {
		return Value{}, err
	}
	switch kind {
	case 0:
		u, err := r.uvarint()
		if err != nil {
			return Value{}, err
		}
		return Value{Bits: uint64(zdec(u))}, nil
	case 1:
		id, err := r.obj()
		if err != nil {
			return Value{}, err
		}
		return Value{IsObj: true, Bits: id}, nil
	}
	return Value{}, r.fail(ErrCorrupt, "bad value discriminator %d", kind)
}

// referenceNext is Reader.Next as it stood before the single-pass decoder,
// body verbatim: the specification the differential tests and
// FuzzTraceReader hold Next to, event for event and error for error.
func (r *Reader) referenceNext(ev *Event) error {
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
	op, err := r.byte()
	if err != nil {
		return err
	}
	*ev = Event{Kind: Kind(op)}
	switch ev.Kind {
	case KindAlloc:
		t, err := r.byte()
		if err != nil {
			return err
		}
		size, err := r.uvarint()
		if err != nil {
			return err
		}
		if size > maxBlock {
			return r.fail(ErrCorrupt, "absurd allocation size %d", size)
		}
		if heap.Type(t) >= heap.TFree {
			// TFree marks dead blocks; no mutator allocates one.
			return r.fail(ErrCorrupt, "bad allocation type %d", t)
		}
		ev.Type = heap.Type(t)
		ev.Size = int(size)
		ev.Obj = r.nextID
		r.nextID++
	case KindStore:
		if ev.Obj, err = r.obj(); err != nil {
			return err
		}
		slot, err := r.uvarint()
		if err != nil {
			return err
		}
		ev.Slot = int(slot)
		if ev.Val, err = r.value(); err != nil {
			return err
		}
	case KindFill:
		if ev.Obj, err = r.obj(); err != nil {
			return err
		}
		if ev.Val, err = r.value(); err != nil {
			return err
		}
	case KindRaw:
		if ev.Obj, err = r.obj(); err != nil {
			return err
		}
		slot, err := r.uvarint()
		if err != nil {
			return err
		}
		ev.Slot = int(slot)
		if r.pos+8 > len(r.blk) {
			return r.fail(ErrCorrupt, "raw bits overrun block")
		}
		ev.Val.Bits = binary.LittleEndian.Uint64(r.blk[r.pos:])
		r.pos += 8
	case KindIntern:
		if ev.Obj, err = r.obj(); err != nil {
			return err
		}
		if ev.Name, err = r.string(); err != nil {
			return err
		}
	case KindPush, KindGlobal:
		if ev.Val, err = r.value(); err != nil {
			return err
		}
	case KindPopTo:
		depth, err := r.uvarint()
		if err != nil {
			return err
		}
		ev.Size = int(depth)
	case KindSet:
		u, err := r.uvarint()
		if err != nil {
			return err
		}
		ev.Ref = int32(zdec(u))
		if ev.Val, err = r.value(); err != nil {
			return err
		}
	case KindCollect:
		full, err := r.byte()
		if err != nil {
			return err
		}
		ev.Full = full != 0
	case KindSession:
		sess, err := r.uvarint()
		if err != nil {
			return err
		}
		if sess > maxBlock {
			return r.fail(ErrCorrupt, "absurd session index %d", sess)
		}
		ev.Size = int(sess)
	default:
		return r.fail(ErrCorrupt, "unknown event opcode %d", op)
	}
	r.events++
	return nil
}
