package trace

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
	for i := range tab {
		tab[i] = 0
	}
	emit := func(lit []byte, offset, mlen int) {
		ll, ml := len(lit), mlen-lzMinMatch
		tok := byte(0)
		if ll < 15 {
			tok = byte(ll) << 4
		} else {
			tok = 15 << 4
		}
		if mlen > 0 {
			if ml < 15 {
				tok |= byte(ml)
			} else {
				tok |= 15
			}
		}
		dst = append(dst, tok)
		if ll >= 15 {
			dst = lzAppendLen(dst, ll-15)
		}
		dst = append(dst, lit...)
		if mlen == 0 {
			return // final literal-only sequence: no offset follows
		}
		dst = append(dst, byte(offset), byte(offset>>8))
		if ml >= 15 {
			dst = lzAppendLen(dst, ml-15)
		}
	}
	anchor, i, n := 0, 0, len(src)
	for i+lzMinMatch <= n {
		h := lzHash(lzLoad32(src, i))
		cand := int(tab[h]) - 1
		tab[h] = uint32(i + 1)
		if cand < 0 || i-cand >= lzMaxOffset || lzLoad32(src, cand) != lzLoad32(src, i) {
			i++
			continue
		}
		mlen := lzMinMatch
		for i+mlen < n && src[cand+mlen] == src[i+mlen] {
			mlen++
		}
		emit(src[anchor:i], i-cand, mlen)
		i += mlen
		anchor = i
	}
	emit(src[anchor:], 0, 0)
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
		if ll > len(src)-si || ll > len(dst)-di {
			return false
		}
		copy(dst[di:], src[si:si+ll])
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
		if off >= ml {
			// Source and destination do not overlap.
			copy(dst[di:di+ml], dst[di-off:])
			di += ml
			continue
		}
		// Byte-at-a-time: an offset shorter than the match length
		// replicates the just-written run, which copy() would get wrong.
		for k := 0; k < ml; k++ {
			dst[di] = dst[di-off]
			di++
		}
	}
	return di == len(dst)
}
