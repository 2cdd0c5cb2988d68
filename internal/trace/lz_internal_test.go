package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rdgc/internal/decay"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

// lzDecodeByteLoop is lzDecode as it stood before non-overlapping matches
// went through copy: every match replicated byte by byte. It is the
// reference the edge table and the corpus round trip hold lzDecode to.
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

// TestLZDecodeMatchEdges walks the offset/length boundary the copy branch
// turns on, and the destination bound on both sides, against the byte loop.
func TestLZDecodeMatchEdges(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name string
		src  []byte
		n    int    // len(dst)
		want string // decoded bytes; "" = must return false
	}{
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

// traceBlocks returns a copy of every event block's raw payload.
func traceBlocks(t *testing.T, data []byte) [][]byte {
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

// TestLZCorpusBlocksRoundTrip compresses every block of the checked-in
// corpus and of a multi-block decay recording and decodes it with both
// decoders: each must reproduce the block, byte for byte.
func TestLZCorpusBlocksRoundTrip(t *testing.T) {
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

	var tab lzTable
	blocks, matched := 0, 0
	for _, data := range traces {
		for _, blk := range traceBlocks(t, data) {
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
	}
	if blocks < 8 || matched == 0 {
		t.Fatalf("only %d blocks (%d with matches): the round trip is not exercising the decoder", blocks, matched)
	}
}
