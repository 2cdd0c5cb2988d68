package trace

import (
	"fmt"
	"io"

	"rdgc/internal/heap"
)

// Replayer applies trace events to a heap, driving any collector through
// the identical allocation/store/root schedule the recording mutator
// produced. An event names an object by allocation ordinal, which on a
// pristine heap is the ID the heap's identity table (heap.TrackIdentity)
// gives it; the collectors carry that table with every object they move,
// at any worker count, and the replayer only reads it (AddrOf).
type Replayer struct {
	h *heap.Heap
	c heap.Collector
}

// NewReplayer attaches a replayer to a pristine heap whose collector c is
// already installed.
func NewReplayer(h *heap.Heap, c heap.Collector) (*Replayer, error) {
	if h.Stats.ObjectsAllocated != 0 || h.LiveRefs() != 0 || h.GlobalRoots() != 0 {
		return nil, fmt.Errorf("%w: replayer needs a pristine heap", ErrInvalid)
	}
	h.TrackIdentity()
	return &Replayer{h: h, c: c}, nil
}

// Close ends the replay. The replayer holds nothing of the heap's to give
// back (the identity table stays on); callers pair it with NewReplayer.
func (rp *Replayer) Close() {}

// word resolves an allocation ID to the object's current address.
func (rp *Replayer) word(id uint64) (heap.Word, error) {
	w, ok := rp.h.AddrOf(id)
	if !ok {
		return 0, fmt.Errorf("%w: object #%d not yet allocated", ErrInvalid, id)
	}
	return w, nil
}

func (rp *Replayer) value(v Value) (heap.Word, error) {
	if v.IsObj {
		return rp.word(v.Bits)
	}
	return heap.Word(v.Bits), nil
}

// Apply executes one event against the heap.
func (rp *Replayer) Apply(ev *Event) error {
	switch ev.Kind {
	case KindAlloc:
		// The allocation may trigger a collection, which carries the identity
		// table along; the heap enters the new object under the next ordinal.
		if n := rp.h.Stats.ObjectsAllocated; n > heap.MaxIdentity {
			return fmt.Errorf("%w: allocation ID %d exceeds the identity table's %d", ErrInvalid, n, uint64(heap.MaxIdentity))
		}
		rp.h.AllocObject(ev.Type, ev.Size)
	case KindStore:
		obj, err := rp.word(ev.Obj)
		if err != nil {
			return err
		}
		val, err := rp.value(ev.Val)
		if err != nil {
			return err
		}
		rp.h.StoreField(obj, ev.Slot, val)
	case KindFill:
		obj, err := rp.word(ev.Obj)
		if err != nil {
			return err
		}
		val, err := rp.value(ev.Val)
		if err != nil {
			return err
		}
		rp.h.FillFields(obj, val)
	case KindRaw:
		obj, err := rp.word(ev.Obj)
		if err != nil {
			return err
		}
		rp.h.StoreRaw(obj, ev.Slot, ev.Val.Bits)
	case KindIntern:
		obj, err := rp.word(ev.Obj)
		if err != nil {
			return err
		}
		rp.h.AdoptSymbol(obj, ev.Name)
	case KindPush:
		val, err := rp.value(ev.Val)
		if err != nil {
			return err
		}
		rp.h.RefOf(val)
	case KindPopTo:
		rp.h.TruncateRefs(ev.Size)
	case KindSet:
		val, err := rp.value(ev.Val)
		if err != nil {
			return err
		}
		rp.h.Set(heap.Ref(ev.Ref), val)
	case KindGlobal:
		val, err := rp.value(ev.Val)
		if err != nil {
			return err
		}
		rp.h.GlobalWord(val)
	case KindCollect:
		if ev.Full {
			if fc, ok := rp.c.(fullCollector); ok {
				fc.FullCollect()
				return nil
			}
		}
		rp.c.Collect()
	case KindSession:
		// Synthetic session attribution marker; no heap effect.
	default:
		return fmt.Errorf("%w: unknown event kind %d", ErrInvalid, ev.Kind)
	}
	return nil
}

// ReplayOptions tunes Replay.
type ReplayOptions struct {
	// Verify runs the deep heap-invariant verifier (heap.VerifyCollector)
	// after every collection and over the final heap.
	Verify bool
}

// ReplayResult is the end state of a replay.
type ReplayResult struct {
	// Stats is the replayed heap's mutator statistics; Replay has already
	// checked them against the trace trailer.
	Stats heap.Stats
	// Events is the number of events applied.
	Events uint64
}

// Replay drives c from the trace in rd on the pristine heap h (whose
// census mode must match the trace header), then proves the replay
// reproduced the recording: the mutator statistics must equal the
// trailer's, else ErrDrift. Malformed traces surface the codec sentinels;
// events that put the heap in an impossible state (a corrupt trace can
// encode one) are converted from panics into ErrInvalid.
func Replay(rd *Reader, h *heap.Heap, c heap.Collector, opt ReplayOptions) (res ReplayResult, err error) {
	if h.CensusEnabled() != rd.Header().Census {
		return res, fmt.Errorf("%w: trace census=%v but heap census=%v",
			ErrInvalid, rd.Header().Census, h.CensusEnabled())
	}
	rp, err := NewReplayer(h, c)
	if err != nil {
		return res, err
	}

	var verifyErr error
	if opt.Verify {
		h.SetAfterGC(func() {
			if verifyErr == nil {
				verifyErr = heap.VerifyCollector(h, c)
			}
		})
		defer h.SetAfterGC(nil)
	}

	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: replay panicked applying event %d: %v", ErrInvalid, res.Events, p)
		}
	}()

	var ev Event
	for {
		nerr := rd.Next(&ev)
		if nerr == io.EOF { // Next returns it bare
			break
		}
		if nerr != nil {
			return res, nerr
		}
		if aerr := rp.Apply(&ev); aerr != nil {
			return res, fmt.Errorf("event %d (%s): %w", res.Events, ev.String(), aerr)
		}
		res.Events++
		if verifyErr != nil {
			return res, fmt.Errorf("event %d: %w", res.Events-1, verifyErr)
		}
	}

	res.Stats = h.Stats
	tr := rd.Trailer()
	if h.Stats.WordsAllocated != tr.WordsAllocated ||
		h.Stats.ObjectsAllocated != tr.ObjectsAllocated ||
		res.Events != tr.Events {
		return res, fmt.Errorf("%w: replayed %d events, %d words, %d objects; recorded %d, %d, %d",
			ErrDrift, res.Events, h.Stats.WordsAllocated, h.Stats.ObjectsAllocated,
			tr.Events, tr.WordsAllocated, tr.ObjectsAllocated)
	}
	if opt.Verify {
		if err := heap.Check(h); err != nil {
			return res, err
		}
		if err := heap.VerifyCollector(h, c); err != nil {
			return res, err
		}
	}
	return res, nil
}
