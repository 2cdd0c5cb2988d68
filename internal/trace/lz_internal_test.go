package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rdgc/internal/decay"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

// lzDecodeByteLoop is lzDecode as it stood before matches and short literal
// runs were copied a word at a time: every match replicated byte by byte.
// It is the reference the edge table, the corpus round trip and
// FuzzLZDecode hold lzDecode to.
func lzDecodeByteLoop(dst, src []byte) bool {
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
		for k := 0; k < ml; k++ {
			dst[di] = dst[di-off]
			di++
		}
	}
	return di == len(dst)
}

// lzSeq hand-assembles one sequence: the literals, then a match of ml
// bytes at the given offset (ml == 0: the final, literal-only sequence).
func lzSeq(lit string, off, ml int) []byte {
	tok := byte(min(len(lit), 15)) << 4
	if ml > 0 {
		tok |= byte(min(ml-lzMinMatch, 15))
	}
	b := []byte{tok}
	if len(lit) >= 15 {
		b = lzAppendLen(b, len(lit)-15)
	}
	b = append(b, lit...)
	if ml == 0 {
		return b
	}
	b = append(b, byte(off), byte(off>>8))
	if ml-lzMinMatch >= 15 {
		b = lzAppendLen(b, ml-lzMinMatch-15)
	}
	return b
}

// lzEdgeCase is one row of TestLZDecodeMatchEdges.
type lzEdgeCase struct {
	name string
	src  []byte
	n    int    // len(dst)
	want string // decoded bytes; "" = must return false
}

// lzReplicate appends a match of ml bytes at offset off to out, a byte at
// a time: the format's definition of a match.
func lzReplicate(out string, off, ml int) string {
	b := []byte(out)
	for k := 0; k < ml; k++ {
		b = append(b, b[len(b)-off])
	}
	return string(b)
}

// lzSlackCases walks the eight-byte copies across their slack rules. A
// literal run of 0..17 bytes (the two-word copy takes up to 16) ends 0..16
// bytes before the end of the source and, separately, of the destination:
// the two-word copy needs sixteen bytes left in both. A match at offset
// 1..9 (word copies need eight), 4..20 bytes long (the two-word copy takes
// up to 16, the word loop the rest, every length mod 8), ends 0..17 bytes
// before the end of the destination (the two-word copy needs sixteen bytes
// left, the loop the match length plus seven), with the destination one
// byte short and one byte long beside each.
func lzSlackCases() []lzEdgeCase {
	const pre, lit = "0123456789abcdef", "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var cases []lzEdgeCase
	for ll := 0; ll <= 17; ll++ {
		for s := 0; s <= 16; s++ {
			for d := 0; d <= 16; d++ {
				// A preamble sequence gives the match after the run
				// something to read. After the run come s bytes: nothing (the
				// run ends the block), a cut-short offset, or an offset-5
				// match and a final run of s-3 literals, the match as long as
				// puts the run's end d bytes before the end of the output —
				// or the minimum, which overruns or underfills the
				// destination.
				src := lzSeq(pre, 16, 4)
				out := lzReplicate(pre, 16, 4) + lit[:ll]
				valid := d == 0
				switch {
				case s == 0:
					src = append(src, lzSeq(lit[:ll], 0, 0)...)
				case s == 1:
					src = append(append(src, lzSeq(lit[:ll], 0, 0)...), 0)
					valid = false
				default:
					tail := lit[:max(s-3, 0)]
					ml := d - len(tail)
					if valid = ml >= lzMinMatch && ml <= lzMinMatch+14; !valid {
						ml = lzMinMatch
					}
					src = append(src, lzSeq(lit[:ll], 5, ml)...)
					if s >= 3 {
						src = append(src, lzSeq(tail, 0, 0)...)
					}
					out = lzReplicate(out, 5, ml) + tail
				}
				c := lzEdgeCase{fmt.Sprintf("%d-byte run, %d bytes before the end of src and %d of dst", ll, s, d), src, len(pre) + 4 + ll + d, ""}
				if valid {
					c.want = out
				}
				cases = append(cases, c)
			}
		}
	}
	for off := 1; off <= 9; off++ {
		for ml := lzMinMatch; ml <= 20; ml++ {
			for e := 0; e <= 17; e++ {
				src := lzSeq(pre, off, ml)
				if e > 0 {
					src = append(src, lzSeq(lit[:e], 0, 0)...)
				}
				out := lzReplicate(pre, off, ml) + lit[:e]
				name := fmt.Sprintf("%d-byte match at offset %d ending %d bytes before the end of dst", ml, off, e)
				cases = append(cases,
					lzEdgeCase{name, src, len(out), out},
					lzEdgeCase{name + ", dst one byte short", src, len(out) - 1, ""},
					lzEdgeCase{name + ", dst one byte long", src, len(out) + 1, ""})
			}
		}
	}
	return cases
}

// TestLZDecodeMatchEdges walks the offset/length boundary the byte loop and
// the word loop part at, the destination bound on both sides, and the
// slack rules of both eight-byte copies, against the byte loop.
func TestLZDecodeMatchEdges(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []lzEdgeCase{
		{"off 1 replicates a run", lzSeq("a", 1, 9), 10, "aaaaaaaaaa"},
		{"off < ml replicates a period", lzSeq("abc", 3, 7), 10, "abcabcabca"},
		{"off == ml-1", lzSeq("abcd", 4, 5), 9, "abcdabcda"},
		{"off == ml, minimum match", lzSeq("abcd", 4, 4), 8, "abcdabcd"},
		{"off == ml, longer: the match ends exactly at len(dst)", lzSeq("abcdefgh", 8, 8), 16, "abcdefghabcdefgh"},
		{"off == ml+1", lzSeq("abcde", 5, 4), 9, "abcdeabcd"},
		{"off > ml, from the start", lzSeq("abcdefghij", 10, 4), 14, "abcdefghijabcd"},
		{"off > ml, mid-buffer", lzSeq("abcdefghij", 6, 4), 14, "abcdefghijefgh"},
		{"extended match length, non-overlapping", lzSeq("0123456789abcdefghijklmnopqrstuv", 32, 30), 62,
			"0123456789abcdefghijklmnopqrstuv0123456789abcdefghijklmnopqrst"},
		{"extended match length, overlapping", lzSeq("xy", 2, 40), 42, "xyxyxyxyxyxyxyxyxyxyxyxyxyxyxyxyxyxyxyxyxy"},
		{"match then literals", cat(lzSeq("abcdef", 6, 6), lzSeq("!", 0, 0)), 13, "abcdefabcdef!"},
		{"two matches, second reads the first", cat(lzSeq("abcd", 4, 4), lzSeq("", 8, 8)), 16, "abcdabcdabcdabcd"},
		{"the same match ends one past len(dst)", lzSeq("abcdefgh", 8, 8), 15, ""},
		{"overlapping match ends one past len(dst)", lzSeq("a", 1, 9), 9, ""},
		{"output shorter than len(dst)", lzSeq("abcdefgh", 8, 8), 17, ""},
		{"offset reaches before the buffer", lzSeq("abcd", 5, 4), 8, ""},
		{"offset zero", lzSeq("abcd", 0, 4), 8, ""},
		{"offset cut short", lzSeq("abcd", 4, 4)[:6], 8, ""},
		{"literals overrun dst", lzSeq("abcdefgh", 0, 0), 7, ""},
	}
	cases = append(cases, lzSlackCases()...)
	for _, tc := range cases {
		got, ref := make([]byte, tc.n), make([]byte, tc.n)
		ok, refOK := lzDecode(got, tc.src), lzDecodeByteLoop(ref, tc.src)
		if ok != refOK || ok != (tc.want != "") {
			t.Errorf("%s: lzDecode returned %v, byte loop %v, want %v", tc.name, ok, refOK, tc.want != "")
			continue
		}
		if ok && (string(got) != tc.want || !bytes.Equal(got, ref)) {
			t.Errorf("%s: lzDecode wrote %q, byte loop %q, want %q", tc.name, got, ref, tc.want)
		}
	}
}

// FuzzLZDecode holds lzDecode to the byte loop on arbitrary input and
// destination lengths: both must accept or both refuse, and an accepted
// block must decode to the same bytes. Seeds are the edge table's streams
// and compressed corpus blocks.
func FuzzLZDecode(f *testing.F) {
	for i, c := range lzSlackCases() {
		if i%7 == 0 {
			f.Add(c.src, c.n)
		}
	}
	var tab lzTable
	for i, blk := range lzCorpusBlocks(f) {
		if i%4 == 0 {
			f.Add(lzAppend(nil, blk, &tab), len(blk))
		}
	}
	f.Fuzz(func(t *testing.T, src []byte, n int) {
		if n < 0 || n > 1<<17 {
			return
		}
		got, ref := make([]byte, n), make([]byte, n)
		ok, refOK := lzDecode(got, src), lzDecodeByteLoop(ref, src)
		if ok != refOK {
			t.Fatalf("lzDecode returned %v, byte loop %v", ok, refOK)
		}
		if ok && !bytes.Equal(got, ref) {
			t.Fatalf("lzDecode and the byte loop differ at byte %d", firstDiff(got, ref))
		}
	})
}

// traceBlocks returns a copy of every event block's raw payload.
func traceBlocks(t testing.TB, data []byte) [][]byte {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]byte
	var ev Event
	seen := rd.raw
	for {
		if err := rd.Next(&ev); err == io.EOF {
			return blocks
		} else if err != nil {
			t.Fatal(err)
		}
		if rd.raw != seen {
			seen = rd.raw
			blocks = append(blocks, append([]byte(nil), rd.blk...))
		}
	}
}

// lzCorpusBlocks returns every event block of the checked-in corpus and of
// a multi-block decay recording.
func lzCorpusBlocks(t testing.TB) [][]byte {
	t.Helper()
	var traces [][]byte
	files, err := filepath.Glob("testdata/traces/*.trace")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus traces: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, data)
	}
	var rec bytes.Buffer
	h := heap.New()
	semispace.New(h, 16384)
	w, err := NewWriter(&rec, Header{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRecorder(h, w)
	if err != nil {
		t.Fatal(err)
	}
	decay.NewWorkload(h, 256, 1).Run(20000)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	traces = append(traces, rec.Bytes())
	var blocks [][]byte
	for _, data := range traces {
		blocks = append(blocks, traceBlocks(t, data)...)
	}
	return blocks
}

// TestLZCorpusBlocksRoundTrip compresses every block of the checked-in
// corpus and of a multi-block decay recording and decodes it with both
// decoders: each must reproduce the block, byte for byte.
func TestLZCorpusBlocksRoundTrip(t *testing.T) {
	var tab lzTable
	blocks, matched := 0, 0
	for _, blk := range lzCorpusBlocks(t) {
		comp := lzAppend(nil, blk, &tab)
		got, ref := make([]byte, len(blk)), make([]byte, len(blk))
		if !lzDecode(got, comp) || !lzDecodeByteLoop(ref, comp) {
			t.Fatalf("block %d (%d bytes): decode failed", blocks, len(blk))
		}
		if !bytes.Equal(got, blk) || !bytes.Equal(ref, blk) {
			t.Fatalf("block %d (%d bytes): round trip mangled the block", blocks, len(blk))
		}
		blocks++
		if len(comp) < len(blk) {
			matched++
		}
	}
	if blocks < 8 || matched == 0 {
		t.Fatalf("only %d blocks (%d with matches): the round trip is not exercising the decoder", blocks, matched)
	}
}

// lzAppendReference is lzAppend as it stood before matches were extended
// eight bytes at a time and sequences were emitted without a closure, body
// verbatim: the specification TestLZAppendMatchesReference holds lzAppend
// to, byte for byte.
func lzAppendReference(dst, src []byte, tab *lzTable) []byte {
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

// TestLZAppendMatchesReference holds lzAppend to the reference encoder,
// byte for byte, over every corpus block, random inputs, and the match
// ends the eight-byte extension turns on: a match that runs to the end of
// the source or stops 1..7 bytes short of it, and matches of every length
// from 4 to 40 bytes, so their last word straddles an 8-byte boundary at
// every residue.
func TestLZAppendMatchesReference(t *testing.T) {
	var inputs [][]byte
	inputs = append(inputs, lzCorpusBlocks(t)...)

	rng := rand.New(rand.NewSource(33))
	random := func(n, alphabet int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(alphabet))
		}
		return b
	}
	for i := 0; i < 300; i++ {
		inputs = append(inputs, random(rng.Intn(2048), 1+rng.Intn(8)))
	}
	inputs = append(inputs, random(blockTarget, 4), random(blockTarget, 256))

	// A random head, then a copy of its first m bytes, then a tail of
	// length end whose first byte breaks the match: the second copy's match
	// is m bytes long and stops end bytes before the end of the source.
	for m := lzMinMatch; m <= 40; m++ {
		for end := 0; end <= 8; end++ {
			for _, lead := range []int{0, 3, 8, 13} {
				head := random(lead+64, 256)
				src := append(append([]byte(nil), head...), head[:m]...)
				if end > 0 {
					src = append(src, head[m]+1)
					src = append(src, random(end-1, 256)...)
				}
				inputs = append(inputs, src)
			}
		}
	}
	// Long runs: offset-1 and short-period matches overlapping their
	// own output, of every length mod 8, ending at or near the source end.
	for n := 0; n <= 300; n++ {
		inputs = append(inputs, bytes.Repeat([]byte{0}, n), bytes.Repeat([]byte("abc"), n/3+1)[:n])
	}

	var tab, refTab lzTable
	for k, src := range inputs {
		dst := []byte{0xAA} // both must append, not overwrite
		got := lzAppend(dst, src, &tab)
		want := lzAppendReference(dst[:1:1], src, &refTab)
		if !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes): lzAppend wrote %d bytes, the reference %d; first difference at %d",
				k, len(src), len(got), len(want), firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// BenchmarkLZDecode decodes every compressed corpus block once per
// iteration and reports the time per decompressed byte.
func BenchmarkLZDecode(b *testing.B) {
	var tab lzTable
	var comp, dst [][]byte
	raw := 0
	for _, blk := range lzCorpusBlocks(b) {
		comp = append(comp, lzAppend(nil, blk, &tab))
		dst = append(dst, make([]byte, len(blk)))
		raw += len(blk)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, c := range comp {
			if !lzDecode(dst[k], c) {
				b.Fatal("decode failed")
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*raw), "ns/byte")
}
