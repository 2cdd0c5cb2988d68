package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// uvarintAt is what each of Next's decode sites does: the in-line helper,
// then uvarintLong when it declines.
func uvarintAt(blk []byte, pos int) (uint64, int) {
	if v, n := uvarint1(blk, pos); n != 0 {
		return v, n
	}
	return uvarintLong(blk, pos)
}

// TestUvarintInlineMatchesBinary holds Next's varint decoding to
// binary.Uvarint: every one-, two- and three-byte encoding, canonical or
// not (0x80 0x00 is a two-byte zero), placed mid-block and at each of the
// last four offsets of a block, and longer, overlong and overflowing
// varints, which must reach uvarintLong. A varint of three bytes or fewer
// with the block's next three bytes in hand must decode in line.
func TestUvarintInlineMatchesBinary(t *testing.T) {
	const blockLen = 24
	buf := bytes.Repeat([]byte{0xff}, blockLen) // continuation bits wherever the varint is not
	check := func(enc []byte, pos, end int) {
		blk := buf[:end]
		written := copy(blk[pos:], enc)
		wantV, wantN := binary.Uvarint(blk[pos:])
		gotV, gotN := uvarintAt(blk, pos)
		if gotV != wantV || gotN != wantN {
			t.Fatalf("% x at offset %d of %d: got (%d, %d), binary.Uvarint (%d, %d)",
				enc, pos, end, gotV, gotN, wantV, wantN)
		}
		_, inN := uvarint1(blk, pos)
		inline := pos+2 < end && wantN >= 1 && wantN <= 3
		if inline != (inN != 0) {
			t.Fatalf("% x at offset %d of %d: decoded in line %v, want %v", enc, pos, end, inN != 0, inline)
		}
		for i := pos; i < pos+written; i++ {
			blk[i] = 0xff
		}
	}
	// Mid-block, then starting 1..4 bytes before the block's end (a longer
	// varint there runs off the block).
	place := func(enc []byte) {
		check(enc, 8, blockLen)
		for back := 1; back <= 4; back++ {
			check(enc, blockLen-back, blockLen)
		}
	}

	var enc [3]byte
	for b0 := 0; b0 < 0x100; b0++ {
		enc[0] = byte(b0)
		if b0 < 0x80 {
			place(enc[:1])
			continue
		}
		for b1 := 0; b1 < 0x100; b1++ {
			enc[1] = byte(b1)
			if b1 < 0x80 {
				place(enc[:2])
				continue
			}
			for b2 := 0; b2 < 0x80; b2++ {
				enc[2] = byte(b2)
				place(enc[:3])
			}
		}
	}

	// Four to ten bytes: the bounds of each length, canonical and padded
	// with zero groups; then a ten-byte varint whose last byte overflows
	// and eleven bytes that never terminate.
	var long [][]byte
	for n := 4; n <= binary.MaxVarintLen64; n++ {
		lo := uint64(1) << (7 * (n - 1))
		hi := lo<<7 - 1
		if n == binary.MaxVarintLen64 {
			hi = ^uint64(0)
		}
		for _, v := range []uint64{lo, lo + 1, lo | 0x5a5a5a5a5a5a5a5a&(hi>>1), hi} {
			long = append(long, binary.AppendUvarint(nil, v))
		}
		pad := make([]byte, n)
		for i := range pad[:n-1] {
			pad[i] = 0x80 | byte(i)
		}
		long = append(long, pad) // a non-canonical encoding of a short value
	}
	overflow := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	long = append(long, overflow, bytes.Repeat([]byte{0xff}, 11), bytes.Repeat([]byte{0x80}, 11))
	for _, enc := range long {
		if len(enc) > blockLen-8 {
			t.Fatalf("test varint % x does not fit the block", enc)
		}
		place(enc)
		check(enc, 0, len(enc)) // exactly filling the block
	}
}
