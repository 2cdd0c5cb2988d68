package trace

import (
	"fmt"

	"rdgc/internal/heap"
)

// Kind discriminates trace events.
type Kind uint8

// The event taxonomy. Together these cover every mutator-visible heap
// mutation the public heap API can perform; collection boundaries record
// the *intent* (collect, full-collect) so each replaying collector applies
// its own policy, exactly as it would have live.
const (
	// KindAlloc allocates the next object: Type and Size (payload words).
	// Objects are numbered by allocation order; the event implicitly
	// assigns the next ID, recorded in Obj by the codec.
	KindAlloc Kind = iota + 1
	// KindStore stores Val into payload slot Slot of object Obj.
	KindStore
	// KindFill stores Val into every payload slot of object Obj, with a
	// single write-barrier record (MakeVector's initializing fill).
	KindFill
	// KindRaw stores raw bits (Val.Bits) into payload slot Slot of object
	// Obj, without a write barrier (flonum data).
	KindRaw
	// KindIntern adopts object Obj as the unique symbol named Name.
	KindIntern
	// KindPush pushes Val onto the handle stack.
	KindPush
	// KindPopTo truncates the handle stack to depth Size.
	KindPopTo
	// KindSet overwrites the slot of Ref with Val.
	KindSet
	// KindGlobal appends Val to the permanent root table.
	KindGlobal
	// KindCollect is a mutator-requested collection boundary; Full asks
	// for a whole-heap collection where the collector supports one.
	KindCollect
	// KindSession marks the start of a synthesized session's turn: the
	// events that follow, up to the next marker, belong to merged session
	// Size. It has no heap effect and the replayer ignores it; the
	// synthesis operators (Interleave, Amplify) emit it and Split and the
	// sharded replay driver consume it. Format version ≥ 2 only.
	KindSession

	kindMax = KindSession
)

var kindNames = [...]string{
	KindAlloc: "alloc", KindStore: "store", KindFill: "fill", KindRaw: "raw",
	KindIntern: "intern", KindPush: "push", KindPopTo: "popto", KindSet: "set",
	KindGlobal: "global", KindCollect: "collect", KindSession: "session",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is an operand that may be an immediate word or an object
// reference. Immediates travel as raw word bits; object references travel
// as allocation-order IDs, resolved to current addresses at replay time.
type Value struct {
	IsObj bool
	// Bits is the immediate's word bits, KindRaw's raw payload bits, or
	// the referenced object's ID.
	Bits uint64
}

// Imm builds an immediate-word operand.
func Imm(w heap.Word) Value { return Value{Bits: uint64(w)} }

// Obj builds an object-reference operand.
func Obj(id uint64) Value { return Value{IsObj: true, Bits: id} }

// Event is one decoded trace event. The zero Event is invalid; Next fills
// all fields relevant to Kind and zeroes the rest, so Events compare with
// ==, except Name which only KindIntern uses.
//
// The one-byte fields and Ref share the first word, so an Event is 64
// bytes: one cache line to zero per Next and to copy per assignment.
type Event struct {
	Kind Kind
	Type heap.Type // KindAlloc: object type
	Full bool      // KindCollect: whole-heap collection requested
	Ref  int32     // KindSet: the heap.Ref written
	Size int       // KindAlloc: payload words; KindPopTo: target depth; KindSession: session index
	Slot int       // KindStore/KindRaw: payload slot index
	Obj  uint64    // target object ID; KindAlloc: the ID assigned
	Val  Value     // operand value (see Kind docs)
	Name string    // KindIntern: symbol name
}

// String renders the event in cmd/gctrace cat's format.
func (e *Event) String() string {
	switch e.Kind {
	case KindAlloc:
		return fmt.Sprintf("alloc   #%d %v/%d", e.Obj, e.Type, e.Size)
	case KindStore:
		return fmt.Sprintf("store   #%d[%d] = %s", e.Obj, e.Slot, e.Val)
	case KindFill:
		return fmt.Sprintf("fill    #%d = %s", e.Obj, e.Val)
	case KindRaw:
		return fmt.Sprintf("raw     #%d[%d] = %#x", e.Obj, e.Slot, e.Val.Bits)
	case KindIntern:
		return fmt.Sprintf("intern  #%d %q", e.Obj, e.Name)
	case KindPush:
		return fmt.Sprintf("push    %s", e.Val)
	case KindPopTo:
		return fmt.Sprintf("popto   %d", e.Size)
	case KindSet:
		return fmt.Sprintf("set     r%d = %s", e.Ref, e.Val)
	case KindGlobal:
		return fmt.Sprintf("global  %s", e.Val)
	case KindCollect:
		if e.Full {
			return "collect full"
		}
		return "collect"
	case KindSession:
		return fmt.Sprintf("session %d", e.Size)
	}
	return fmt.Sprintf("event(%d)", uint8(e.Kind))
}

func (v Value) String() string {
	if v.IsObj {
		return fmt.Sprintf("#%d", v.Bits)
	}
	return fmt.Sprintf("%#x", v.Bits)
}
