// Package heap implements the simulated, word-addressed heap that every
// collector in this repository manages.
//
// The heap is deliberately independent of Go's own garbage collector: all
// object storage lives inside []Word arenas ("spaces"), objects are tagged
// 64-bit words, and collectors really copy, mark, and sweep those words.
// Mutators (benchmarks, workload generators) refer to heap objects only
// through Refs — slots in a GC-updated handle stack — so copying collectors
// are free to move anything at any collection.
//
// Time, throughout the repository, is measured in allocated words.
package heap

import "fmt"

// Word is a tagged 64-bit heap word. The low two bits carry the tag:
//
//	00 fixnum     signed 62-bit integer in the high bits
//	01 pointer    space id and word offset of an object header
//	10 immediate  null, booleans, characters, unspecified, eof
//	11 header     first word of every heap object (never a value)
type Word uint64

// Tag values for the low two bits of a Word.
const (
	TagFixnum Word = 0
	TagPtr    Word = 1
	TagImm    Word = 2
	TagHeader Word = 3

	tagMask Word = 3
)

// IsFixnum reports whether w is a fixnum.
func IsFixnum(w Word) bool { return w&tagMask == TagFixnum }

// IsPtr reports whether w is a heap pointer.
func IsPtr(w Word) bool { return w&tagMask == TagPtr }

// IsHeader reports whether w is an object header word.
func IsHeader(w Word) bool { return w&tagMask == TagHeader }

// FixnumWord encodes a signed integer as a fixnum word.
// Values must fit in 62 bits; the encoding truncates silently beyond that,
// which no workload in this repository approaches.
func FixnumWord(n int64) Word { return Word(uint64(n) << 2) }

// FixnumVal decodes a fixnum word. It panics if w is not a fixnum.
func FixnumVal(w Word) int64 {
	if !IsFixnum(w) {
		panic(fixnumFault(w))
	}
	return int64(w) >> 2
}

// fixnumFault is FixnumVal's panic message, formatted out of line so the
// decode inlines.
//
//go:noinline
func fixnumFault(w Word) string {
	return fmt.Sprintf("heap: FixnumVal of non-fixnum %#x", uint64(w))
}

// Immediate constants. The immediate subtype lives in bits 2..7.
const (
	immNull  Word = 0
	immFalse Word = 1
	immTrue  Word = 2
)

// The canonical immediate words.
var (
	NullWord  = TagImm | immNull<<2
	FalseWord = TagImm | immFalse<<2
	TrueWord  = TagImm | immTrue<<2
)

// BoolWord converts a Go bool to the Scheme-style immediate.
func BoolWord(b bool) Word {
	if b {
		return TrueWord
	}
	return FalseWord
}

// SpaceID identifies a Space within a Heap.
type SpaceID uint16

// Pointer layout: tag(2) | offset(32) | space(16). The offset is the word
// index of the object's header within its space.
const (
	ptrOffShift   = 2
	ptrOffBits    = 32
	ptrSpaceShift = ptrOffShift + ptrOffBits
)

// PtrWord encodes a pointer to the header at word offset off in space id.
func PtrWord(id SpaceID, off int) Word {
	return TagPtr | Word(off)<<ptrOffShift | Word(id)<<ptrSpaceShift
}

// PtrSpace returns the space id of pointer word w.
func PtrSpace(w Word) SpaceID { return SpaceID(w >> ptrSpaceShift) }

// PtrOff returns the header word offset of pointer word w within its space.
func PtrOff(w Word) int { return int(w>>ptrOffShift) & (1<<ptrOffBits - 1) }

// Type is the dynamic type of a heap object, stored in its header.
type Type uint8

// Object types. TFree marks a free block in mark/sweep-managed spaces; it is
// never a live object. Payloads of TFlonum and TBytevec are raw (never
// scanned for pointers); all other payloads are scanned word by word.
const (
	TPair Type = iota
	TVector
	TFlonum
	TSymbol
	TBytevec
	TBox
	TFree
	numTypes
)

var typeNames = [numTypes]string{"pair", "vector", "flonum", "symbol", "bytevector", "box", "free"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Header layout: tag(2) | type(6) | mark(1) | age(7) | size(48).
// size counts the payload words that follow the header (including the
// hidden birth-stamp word when the heap has census tracking enabled). age is
// the number of nursery collections the object has survived: only the
// tenured evacuation (tenure.go) writes it, only into a copy it keeps in a
// young space, and nothing reads it anywhere else.
const (
	hdrTypeShift = 2
	hdrMarkBit   = Word(1) << 8
	hdrAgeShift  = 9
	hdrAgeMask   = Word(MaxObjectAge) << hdrAgeShift
	hdrSizeShift = 16
)

// MaxObjectAge is the saturation point of the header's seven age bits. Ages
// cap here instead of wrapping, so any promotion threshold above it
// (TenureNever in particular) means "never promote".
const MaxObjectAge = 127

// HeaderWord builds an unmarked header for an object of type t whose payload
// occupies size words.
func HeaderWord(t Type, size int) Word {
	return TagHeader | Word(t)<<hdrTypeShift | Word(size)<<hdrSizeShift
}

// HeaderType extracts the object type from a header word.
func HeaderType(h Word) Type { return Type(h >> hdrTypeShift & 0x3f) }

// HeaderSize extracts the payload size in words from a header word.
func HeaderSize(h Word) int { return int(h >> hdrSizeShift) }

// HeaderAge extracts the age from a header word: the nursery collections
// the object has survived, 0 for every object no tenured run has retained.
func HeaderAge(h Word) int { return int(h & hdrAgeMask >> hdrAgeShift) }

// WithHeaderAge returns h with its age set to age, saturating at
// MaxObjectAge. Type, size and mark bit are untouched.
func WithHeaderAge(h Word, age int) Word {
	if age > MaxObjectAge {
		age = MaxObjectAge
	}
	return h&^hdrAgeMask | Word(age)<<hdrAgeShift
}

// Marked reports whether the header's mark bit is set.
func Marked(h Word) bool { return h&hdrMarkBit != 0 }

// SetMark returns h with the mark bit set.
func SetMark(h Word) Word { return h | hdrMarkBit }

// ClearMark returns h with the mark bit cleared.
func ClearMark(h Word) Word { return h &^ hdrMarkBit }

// RawPayload reports whether objects of type t have payloads that must not
// be scanned for pointers.
func RawPayload(t Type) bool { return t == TFlonum || t == TBytevec }
