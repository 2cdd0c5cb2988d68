package trace

import (
	"encoding/binary"
	"math/bits"
)

// An LZ77 block codec in the LZ4 token format, hand-rolled so the trace
// package stays dependency-free and the decoder stays allocation-free.
// compress/flate would cost a Reader allocation per stream and a slower
// decode path; trace blocks are small (≤ blockTarget) and highly
// self-similar (varint event streams), which is exactly the regime a
// greedy hash-chain-less LZ with a 64 KiB window handles well.
//
// Sequence layout, repeated until the source is exhausted:
//
//	token byte: literal-length nibble (high) | match-length nibble (low)
//	[literal length extension bytes, 255-run coded, if nibble == 15]
//	literal bytes
//	2-byte little-endian match offset (1 .. 65535)
//	[match length extension bytes, if nibble == 15]
//
// Match lengths are stored minus lzMinMatch. The final sequence carries
// literals only: the stream simply ends after them, with no offset — the
// decoder treats source exhaustion after literals as end-of-block.

const (
	lzHashLog   = 13
	lzTableSize = 1 << lzHashLog
	lzMinMatch  = 4
	lzMaxOffset = 1 << 16 // 2-byte offsets; ≥ blockTarget, so the window never slides
)

// lzTable maps 4-byte-prefix hashes to candidate positions + 1 (0 = empty).
// It is reused across blocks and cleared on entry to lzAppend.
type lzTable [lzTableSize]uint32

func lzHash(u uint32) uint32 { return (u * 2654435761) >> (32 - lzHashLog) }

func lzLoad32(b []byte, i int) uint32 {
	_ = b[i+3]
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

// lzAppendLen appends a 15-biased run-coded length extension.
func lzAppendLen(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// lzAppend appends the compressed form of src to dst and returns it. The
// output is deterministic (greedy parse, fixed table size) so identical
// traces compress to identical bytes on every platform.
func lzAppend(dst, src []byte, tab *lzTable) []byte {
	*tab = lzTable{}
	anchor, i, n := 0, 0, len(src)
	for i+lzMinMatch <= n {
		h := lzHash(lzLoad32(src, i))
		cand := int(tab[h]) - 1
		tab[h] = uint32(i + 1)
		if cand < 0 || i-cand >= lzMaxOffset || lzLoad32(src, cand) != lzLoad32(src, i) {
			i++
			continue
		}
		mlen := lzMatchLen(src, cand, i)
		dst = lzEmit(dst, src[anchor:i], i-cand, mlen)
		i += mlen
		anchor = i
	}
	return lzEmit(dst, src[anchor:], 0, 0)
}

// lzMatchLen extends the 4-byte match of src[cand:] at src[i:] (cand < i)
// as far as the source allows, eight bytes per step: the first differing
// byte of a step is the lowest set byte of the XOR of the two words.
func lzMatchLen(src []byte, cand, i int) int {
	mlen, n := lzMinMatch, len(src)
	for i+mlen+8 <= n {
		if x := binary.LittleEndian.Uint64(src[i+mlen:]) ^ binary.LittleEndian.Uint64(src[cand+mlen:]); x != 0 {
			return mlen + bits.TrailingZeros64(x)>>3
		}
		mlen += 8
	}
	for i+mlen < n && src[cand+mlen] == src[i+mlen] {
		mlen++
	}
	return mlen
}

// lzEmit appends one sequence: the literals lit, then a match of mlen bytes
// at the given offset, or nothing after the literals when mlen is 0 (the
// final, literal-only sequence).
func lzEmit(dst, lit []byte, offset, mlen int) []byte {
	ll, ml := len(lit), mlen-lzMinMatch
	tok := byte(min(ll, 15)) << 4
	if mlen > 0 {
		tok |= byte(min(ml, 15))
	}
	dst = append(dst, tok)
	if ll >= 15 {
		dst = lzAppendLen(dst, ll-15)
	}
	dst = append(dst, lit...)
	if mlen == 0 {
		return dst
	}
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = lzAppendLen(dst, ml-15)
	}
	return dst
}

// lzDecode decompresses src into dst, which must be exactly the original
// length (the writer stores it ahead of the compressed bytes). Every read
// and write is bounds-checked so corrupt input returns false instead of
// panicking or over-reading; it never allocates.
func lzDecode(dst, src []byte) bool {
	di, si := 0, 0
	readLen := func(base int) (int, bool) {
		v := base
		for {
			if si >= len(src) {
				return 0, false
			}
			b := src[si]
			si++
			v += int(b)
			if b != 255 {
				return v, true
			}
		}
	}
	for si < len(src) {
		tok := src[si]
		si++
		ll := int(tok >> 4)
		if ll == 15 {
			var ok bool
			if ll, ok = readLen(15); !ok {
				return false
			}
		}
		if ll <= 16 && len(src)-si >= 16 && len(dst)-di >= 16 {
			// A short run with room behind it in both buffers goes as two
			// words; the bytes past ll are overwritten by what follows.
			binary.LittleEndian.PutUint64(dst[di:], binary.LittleEndian.Uint64(src[si:]))
			binary.LittleEndian.PutUint64(dst[di+8:], binary.LittleEndian.Uint64(src[si+8:]))
		} else {
			if ll > len(src)-si || ll > len(dst)-di {
				return false
			}
			copy(dst[di:], src[si:si+ll])
		}
		di += ll
		si += ll
		if si == len(src) {
			break // final literal-only sequence
		}
		if len(src)-si < 2 {
			return false
		}
		off := int(src[si]) | int(src[si+1])<<8
		si += 2
		if off == 0 || off > di {
			return false
		}
		ml := int(tok & 15)
		if ml == 15 {
			var ok bool
			if ml, ok = readLen(15); !ok {
				return false
			}
		}
		ml += lzMinMatch
		if ml > len(dst)-di {
			return false
		}
		// Eight bytes a step where a word fits: each word is read from at
		// least eight bytes back, so it was written before it is read, even
		// where the match overlaps its own output, and the last step may
		// run up to seven bytes past the match, into bytes the next
		// sequence overwrites.
		switch {
		case off >= 8 && ml <= 16 && len(dst)-di >= 16:
			// Nearly every match in a trace block: two steps, no loop.
			binary.LittleEndian.PutUint64(dst[di:], binary.LittleEndian.Uint64(dst[di-off:]))
			binary.LittleEndian.PutUint64(dst[di+8:], binary.LittleEndian.Uint64(dst[di+8-off:]))
		case off >= 8 && len(dst)-di >= ml+7:
			for k := 0; k < ml; k += 8 {
				binary.LittleEndian.PutUint64(dst[di+k:], binary.LittleEndian.Uint64(dst[di+k-off:]))
			}
		default:
			// Byte at a time: an offset under eight replicates a run
			// shorter than a word, and the last bytes of a block have no
			// room for one.
			for k := di; k < di+ml; k++ {
				dst[k] = dst[k-off]
			}
		}
		di += ml
	}
	return di == len(dst)
}
