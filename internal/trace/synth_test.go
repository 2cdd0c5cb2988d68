package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"testing"

	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// openTrace wraps raw bytes in a fresh Reader.
func openTrace(t *testing.T, raw []byte) *trace.Reader {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// replayTrace replays raw under the given collector constructor and
// returns the resulting mutator stats.
func replayTrace(t *testing.T, raw []byte, mk func(*heap.Heap) heap.Collector, verify bool) trace.ReplayResult {
	t.Helper()
	rd := openTrace(t, raw)
	var opts []heap.Option
	if rd.Header().Census {
		opts = append(opts, heap.WithCensus())
	}
	h := heap.New(opts...)
	res, err := trace.Replay(rd, h, mk(h), trace.ReplayOptions{Verify: verify})
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	return res
}

// synthInputs records three distinct single-session workloads.
func synthInputs(t *testing.T) [][]byte {
	t.Helper()
	mk := gcfuzz.Collectors()[0].New
	var inputs [][]byte
	for i, steps := range []int{300, 400, 500} {
		raw, _, _ := recordMutator(t, mk, false, int64(i+1), steps)
		inputs = append(inputs, raw)
	}
	return inputs
}

// interleaveBytes runs Interleave over fresh readers of the inputs.
func interleaveBytes(t *testing.T, inputs [][]byte, opt trace.SynthOptions) ([]byte, trace.Trailer) {
	t.Helper()
	rds := make([]*trace.Reader, len(inputs))
	for i, raw := range inputs {
		rds[i] = openTrace(t, raw)
	}
	var buf bytes.Buffer
	tr, err := trace.Interleave(&buf, rds, opt)
	if err != nil {
		t.Fatalf("interleave: %v", err)
	}
	return buf.Bytes(), tr
}

// TestInterleaveSplitRoundTrip is the synthesis core property: for both
// the round-robin and a seeded schedule, interleaving K single-session
// traces is invertible — Split reproduces every input byte for byte —
// and the merged corpus itself replays cleanly under the deep verifier.
func TestInterleaveSplitRoundTrip(t *testing.T) {
	inputs := synthInputs(t)
	for _, opt := range []trace.SynthOptions{
		{Chunk: 32},
		{Seed: 42, Chunk: 16},
		{Compress: true, Seed: 9},
	} {
		name := fmt.Sprintf("seed=%d,chunk=%d,z=%v", opt.Seed, opt.Chunk, opt.Compress)
		merged, tr := interleaveBytes(t, inputs, opt)
		merged2, _ := interleaveBytes(t, inputs, opt)
		if !bytes.Equal(merged, merged2) {
			t.Fatalf("%s: interleave is not deterministic", name)
		}

		// The merged trailer is the sum of the input trailers.
		var words, objects uint64
		for _, raw := range inputs {
			it, err := openTrace(t, raw).Drain()
			if err != nil {
				t.Fatal(err)
			}
			words += it.WordsAllocated
			objects += it.ObjectsAllocated
		}
		if tr.WordsAllocated != words || tr.ObjectsAllocated != objects {
			t.Fatalf("%s: merged trailer %+v, want %d words / %d objects", name, tr, words, objects)
		}

		st := replayTrace(t, merged, gcfuzz.Collectors()[0].New, true)
		if st.Stats.WordsAllocated != words {
			t.Fatalf("%s: merged replay allocated %d words, want %d", name, st.Stats.WordsAllocated, words)
		}

		// Splitting by session must reproduce the inputs byte for byte —
		// split outputs are plain uncompressed traces, so compare against
		// the original (uncompressed) recordings.
		if opt.Compress {
			continue
		}
		parts, err := trace.Split(openTrace(t, merged), trace.SynthOptions{})
		if err != nil {
			t.Fatalf("%s: split: %v", name, err)
		}
		if len(parts) != len(inputs) {
			t.Fatalf("%s: split produced %d traces, want %d", name, len(parts), len(inputs))
		}
		for i := range parts {
			if !bytes.Equal(parts[i], inputs[i]) {
				t.Fatalf("%s: session %d did not survive interleave+split (%d bytes vs %d)",
					name, i, len(parts[i]), len(inputs[i]))
			}
		}
	}
}

// TestInterleaveRejectsCensusMismatch pins the input-compatibility check:
// census changes allocation sizes, so mixed inputs cannot share a heap.
func TestInterleaveRejectsCensusMismatch(t *testing.T) {
	mk := gcfuzz.Collectors()[0].New
	plain, _, _ := recordMutator(t, mk, false, 1, 100)
	census, _, _ := recordMutator(t, mk, true, 1, 100)
	var buf bytes.Buffer
	_, err := trace.Interleave(&buf, []*trace.Reader{openTrace(t, plain), openTrace(t, census)}, trace.SynthOptions{})
	if !errors.Is(err, trace.ErrInvalid) {
		t.Fatalf("census mismatch: got %v, want ErrInvalid", err)
	}
}

// TestShardAggregateInvariance mirrors PR 9's shard-count partition test
// at the trace level: however a merged corpus is sharded, the shard
// trailers and the per-shard replay stats sum to the same aggregate.
func TestShardAggregateInvariance(t *testing.T) {
	merged, tr := interleaveBytes(t, synthInputs(t), trace.SynthOptions{Seed: 5})
	base := replayTrace(t, merged, gcfuzz.Collectors()[0].New, false)
	for _, n := range []int{1, 2, 3, 5, 8} {
		shards, err := trace.Shard(openTrace(t, merged), n, trace.SynthOptions{})
		if err != nil {
			t.Fatalf("shard %d: %v", n, err)
		}
		var sum heap.Stats
		var events uint64
		var trSum trace.Trailer
		for _, raw := range shards {
			st, err := openTrace(t, raw).Drain()
			if err != nil {
				t.Fatalf("shard %d: %v", n, err)
			}
			trSum.WordsAllocated += st.WordsAllocated
			trSum.ObjectsAllocated += st.ObjectsAllocated
			trSum.Events += st.Events
			rs := replayTrace(t, raw, gcfuzz.Collectors()[0].New, true)
			sum.WordsAllocated += rs.Stats.WordsAllocated
			sum.ObjectsAllocated += rs.Stats.ObjectsAllocated
			events += rs.Events
		}
		if trSum.WordsAllocated != tr.WordsAllocated || trSum.ObjectsAllocated != tr.ObjectsAllocated ||
			trSum.Events != tr.Events {
			t.Fatalf("shards=%d: trailer sum %+v, merged %+v", n, trSum, tr)
		}
		if sum != base.Stats || events != base.Events {
			t.Fatalf("shards=%d: replay sum %+v (%d events), merged replay %+v (%d events)",
				n, sum, events, base.Stats, base.Events)
		}
	}
}

// TestAmplify pins the self-interleave: n sessions multiply the trailer
// exactly, the session census sees n sessions, and the corpus replays
// verifier-clean.
func TestAmplify(t *testing.T) {
	mk := gcfuzz.Collectors()[0].New
	base, _, _ := recordMutator(t, mk, false, 3, 200)
	bt, err := openTrace(t, base).Drain()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var buf bytes.Buffer
	tr, err := trace.Amplify(&buf, base, n, trace.SynthOptions{Seed: 11})
	if err != nil {
		t.Fatalf("amplify: %v", err)
	}
	if tr.WordsAllocated != n*bt.WordsAllocated || tr.ObjectsAllocated != n*bt.ObjectsAllocated {
		t.Fatalf("amplify ×%d trailer %+v, base %+v", n, tr, bt)
	}
	sum, err := trace.Stat(openTrace(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sessions != n {
		t.Fatalf("amplified corpus reports %d sessions, want %d", sum.Sessions, n)
	}
	replayTrace(t, buf.Bytes(), mk, true)
}

// recordBase records one small mutator session carrying heap_words
// sizing metadata, so amplified corpora size their replay grid the way
// `gctrace record` traces do (Amplify sums heap_words across copies).
func recordBase(t testing.TB, seed int64, steps, heapWords int) []byte {
	t.Helper()
	h := heap.New()
	c := gcfuzz.Collectors()[0].New(h)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Meta: []trace.MetaEntry{
		{Key: "workload", Value: "synth-base"},
		{Key: "heap_words", Value: strconv.Itoa(heapWords)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(h, w)
	if err != nil {
		t.Fatal(err)
	}
	driveMutator(h, rec.Collector(c), seed, steps)
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sizedGrid mirrors gctrace's replay sizing: heap_words metadata picks
// the collector grid, traces without it get the fuzz-sized grid.
func sizedGrid(t *testing.T, raw []byte) []gcfuzz.NamedCollector {
	t.Helper()
	hdr := openTrace(t, raw).Header()
	if s, ok := hdr.Lookup("heap_words"); ok {
		if n, err := strconv.Atoi(s); err == nil {
			return gcfuzz.CollectorsSized(n)
		}
	}
	return gcfuzz.Collectors()
}

// synthGoldenPath drift-guards the 1k-session corpus recipe.
const synthGoldenPath = "testdata/synth-golden.json"

// synthGolden is the aggregate fingerprint of the synthesized corpus.
type synthGolden struct {
	Sessions         uint64 `json:"sessions"`
	Events           uint64 `json:"events"`
	Words            uint64 `json:"words"`
	Objects          uint64 `json:"objects"`
	Collections      uint64 `json:"collections"`
	FullCollections  uint64 `json:"full_collections"`
	RawBytes         uint64 `json:"raw_bytes"`
	CompressedBytes  uint64 `json:"compressed_bytes"`
	RawSHA256        string `json:"raw_sha256"`
	CompressedSHA256 string `json:"compressed_sha256"`
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sessions1k is the session count of the standard synthesized corpus.
const sessions1k = 1000

// base1k records the one small session the standard corpus amplifies.
func base1k(tb testing.TB) []byte { return recordBase(tb, 9, 40, 2048) }

// build1kCorpus synthesizes the standard 1000-session interleaved corpus
// from one small recorded session (the same recipe `gctrace synth` and
// `make synth` document), compressed and uncompressed.
func build1kCorpus(t *testing.T) (raw, compressed []byte) {
	t.Helper()
	base := base1k(t)
	var plain, z bytes.Buffer
	if _, err := trace.Amplify(&plain, base, sessions1k, trace.SynthOptions{Seed: 1000}); err != nil {
		t.Fatalf("amplify: %v", err)
	}
	if _, err := trace.Amplify(&z, base, sessions1k, trace.SynthOptions{Seed: 1000, Compress: true}); err != nil {
		t.Fatalf("amplify compressed: %v", err)
	}
	return plain.Bytes(), z.Bytes()
}

// TestSynthGolden1kSessions drift-guards the synthesized corpus (the
// recipe must keep producing the same aggregate, byte sizes and the
// sha256 of both forms included — regenerate with `make synth`) and proves the acceptance property: the
// 1k-session corpus replays verifier-clean and stats-deterministically
// under all seven collectors, and compression at least halves it.
func TestSynthGolden1kSessions(t *testing.T) {
	raw, z := build1kCorpus(t)
	sum, err := trace.Stat(openTrace(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	got := synthGolden{
		Sessions:         sum.Sessions,
		Events:           sum.Trailer.Events,
		Words:            sum.Trailer.WordsAllocated,
		Objects:          sum.Trailer.ObjectsAllocated,
		Collections:      sum.Collections,
		FullCollections:  sum.FullCollections,
		RawBytes:         uint64(len(raw)),
		CompressedBytes:  uint64(len(z)),
		RawSHA256:        sha256Hex(raw),
		CompressedSHA256: sha256Hex(z),
	}
	if os.Getenv("RDGC_WRITE_TRACES") == "1" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(synthGoldenPath, append(data, '\n'), 0o666); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %+v", synthGoldenPath, got)
	} else {
		data, err := os.ReadFile(synthGoldenPath)
		if err != nil {
			t.Fatalf("%v (run `make synth` to regenerate)", err)
		}
		var want synthGolden
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("synthesized corpus drifted from %s:\ngot  %+v\nwant %+v\n(run `make synth` to regenerate)",
				synthGoldenPath, got, want)
		}
	}
	if got.Sessions != 1000 {
		t.Fatalf("corpus has %d sessions, want 1000", got.Sessions)
	}
	if 2*got.CompressedBytes > got.RawBytes {
		t.Fatalf("compression ratio %.2fx < 2x (raw %d, compressed %d)",
			float64(got.RawBytes)/float64(got.CompressedBytes), got.RawBytes, got.CompressedBytes)
	}

	// Replays verifier-clean and stats-deterministic under all seven
	// collectors — from the compressed form, which must decode to the
	// identical stream. The replay heaps share nothing, so the seven run as
	// parallel subtests; each is then held to the first.
	grid := sizedGrid(t, z)
	results := make([]trace.ReplayResult, len(grid))
	t.Run("replay", func(t *testing.T) {
		for i, nc := range grid {
			t.Run(nc.Name, func(t *testing.T) {
				t.Parallel()
				results[i] = replayTrace(t, z, nc.New, true)
			})
		}
	})
	if t.Failed() {
		return
	}
	first := results[0]
	for i, st := range results[1:] {
		if st != first {
			t.Fatalf("%s replay stats %+v diverge from %s's %+v",
				grid[i+1].Name, st, grid[0].Name, first)
		}
	}
	if first.Stats.WordsAllocated != got.Words || first.Stats.ObjectsAllocated != got.Objects {
		t.Fatalf("replay stats %+v disagree with corpus trailer %+v", first, got)
	}
}

// TestAmplifyDecodesOnce is the allocation guard of Amplify's shared
// decode: the base is decoded once for all its sessions, so the 1000-session
// recipe allocates a few megabytes. A Reader per session — a 64 KiB read
// buffer and a block buffer each — allocated about 71 MB.
func TestAmplifyDecodesOnce(t *testing.T) {
	const bound = 16 << 20
	base := base1k(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := trace.Amplify(io.Discard, base, sessions1k, trace.SynthOptions{Seed: 1000})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Errorf("Amplify of %d sessions allocated %d bytes, want under %d", sessions1k, got, bound)
	}
}

// frameStarts returns the offset of every block frame of a version-2 trace,
// the header block's first and the terminator's last.
func frameStarts(t *testing.T, data []byte) []int {
	t.Helper()
	_, n := binary.Uvarint(data[8:]) // the format version, after the magic
	pos := 8 + n
	var starts []int
	for {
		starts = append(starts, pos)
		u, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			t.Fatalf("bad frame length at offset %d", pos)
		}
		if u>>1 == 0 {
			return starts
		}
		pos += n + 4 + int(u>>1) // length, checksum, payload
	}
}

// TestAmplifyCorruptBase: the sessions of an Amplify share one decode, and
// a decode error reaches them only where the base fails. Cut at every
// block boundary, or with one bit flipped in any block, the base must fail
// Amplify with the error NewReader and Drain report for it, never a panic.
func TestAmplifyCorruptBase(t *testing.T) {
	for _, form := range writeForms {
		var buf bytes.Buffer
		recordDecay(t, &buf, 1500, form.opts...)
		base := buf.Bytes()
		starts := frameStarts(t, base)
		if len(starts) < 5 {
			t.Fatalf("%s base has %d frames, want several event blocks", form.name, len(starts))
		}
		check := func(what string, data []byte) {
			t.Helper()
			rd, want := trace.NewReader(bytes.NewReader(data))
			if want == nil {
				_, want = rd.Drain()
			}
			if !errors.Is(want, trace.ErrCorrupt) && !errors.Is(want, trace.ErrTruncated) {
				t.Fatalf("%s %s: reader reports %v, want a corrupt or truncated sentinel", form.name, what, want)
			}
			_, got := trace.Amplify(io.Discard, data, 4, form.syn)
			if got == nil || got.Error() != want.Error() {
				t.Errorf("%s %s: Amplify returned %v, the reader %v", form.name, what, got, want)
			}
		}
		for _, at := range starts {
			check(fmt.Sprintf("cut at %d", at), base[:at])
		}
		for i, at := range starts[:len(starts)-1] {
			u, n := binary.Uvarint(base[at:])
			mut := bytes.Clone(base)
			mut[at+n+4+int(u>>1)/2] ^= 0x10
			check(fmt.Sprintf("bit flipped in block %d", i), mut)
		}
	}
}

// TestInterleaveRefusesReadInputs: a feed decodes ahead of its sessions, and
// Interleave must still refuse an input already read from, or the same
// Reader passed twice.
func TestInterleaveRefusesReadInputs(t *testing.T) {
	raw, _, _ := recordMutator(t, gcfuzz.Collectors()[0].New, false, 1, 100)
	read := openTrace(t, raw)
	var ev trace.Event
	if err := read.Next(&ev); err != nil {
		t.Fatal(err)
	}
	a, b := openTrace(t, raw), openTrace(t, raw)
	for name, inputs := range map[string][]*trace.Reader{
		"read":         {openTrace(t, raw), read},
		"twice":        {a, a},
		"twice-around": {b, openTrace(t, raw), b},
	} {
		if _, err := trace.Interleave(io.Discard, inputs, trace.SynthOptions{}); !errors.Is(err, trace.ErrInvalid) {
			t.Errorf("%s: got %v, want ErrInvalid", name, err)
		}
	}
}
