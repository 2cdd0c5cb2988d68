package experiments

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"rdgc/internal/bench"
	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// goldenPrograms picks small registry workloads for the conformance test;
// the full suite is exercised by gcbench -record.
func goldenPrograms() []bench.Program {
	all := bench.Quick()
	return []bench.Program{all[2], all[4]} // lattice, 2dyninfer
}

// eventBytes strips a trace's preamble and header block, returning the
// event blocks and trailer — the collector-independent part of the file.
func eventBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	pos := 8 // magic
	_, n := binary.Uvarint(raw[pos:])
	pos += n // version
	frame, n := binary.Uvarint(raw[pos:])
	// v2 frame: uvarint storedLen<<1|compressed + crc32 + stored payload.
	pos += n + 4 + int(frame>>1)
	if n <= 0 || pos > len(raw) {
		t.Fatalf("malformed trace preamble")
	}
	return raw[pos:]
}

// liveBenchRun mirrors RecordBenchTrace's run shape without any recording.
func liveBenchRun(t *testing.T, p bench.Program, nc gcfuzz.NamedCollector) (heap.Stats, heap.GCStats) {
	t.Helper()
	h := heap.New()
	c := nc.New(h)
	if err := p.Run(h); err != nil {
		t.Fatalf("%s live under %s: %v", p.Name(), nc.Name, err)
	}
	c.Collect()
	return h.Stats, *c.GCStats()
}

// TestBenchTraceGoldenReplay is the benchmark-level conformance property:
// each registry workload, recorded once, replays under all seven collectors
// with byte-identical mutator Stats and GCStats identical to a live run of
// that collector — and the recording itself neither perturbs the recording
// run nor depends on which collector recorded it.
func TestBenchTraceGoldenReplay(t *testing.T) {
	dir := t.TempDir()
	for _, p := range goldenPrograms() {
		grid := gcfuzz.CollectorsSized(p.HeapWords())

		path := filepath.Join(dir, p.Name()+".trace")
		stats, err := RecordBenchTrace(path, p, grid[0])
		if err != nil {
			t.Fatal(err)
		}
		liveStats, _ := liveBenchRun(t, p, grid[0])
		if stats != liveStats {
			t.Fatalf("%s: recording perturbed the run: %+v vs %+v", p.Name(), stats, liveStats)
		}

		// Record once: a different recording collector produces the identical
		// event stream. (The header differs — it names the recording
		// collector — so compare everything after the header block.)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		path2 := filepath.Join(dir, p.Name()+"-gen.trace")
		if _, err := RecordBenchTrace(path2, p, grid[2]); err != nil {
			t.Fatal(err)
		}
		raw2, err := os.ReadFile(path2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(eventBytes(t, raw), eventBytes(t, raw2)) {
			t.Fatalf("%s: trace events depend on the recording collector (%s vs %s)",
				p.Name(), grid[0].Name, grid[2].Name)
		}

		for _, nc := range grid {
			wantStats, wantGC := liveBenchRun(t, p, nc)
			rd, err := trace.NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			h := heap.New()
			c := nc.New(h)
			res, err := trace.Replay(rd, h, c, trace.ReplayOptions{Verify: true})
			if err != nil {
				t.Fatalf("%s replay under %s: %v", p.Name(), nc.Name, err)
			}
			if res.Stats != wantStats {
				t.Errorf("%s under %s: replay stats %+v, live %+v", p.Name(), nc.Name, res.Stats, wantStats)
			}
			if got := *c.GCStats(); got != wantGC {
				t.Errorf("%s under %s: replay GCStats %+v, live %+v", p.Name(), nc.Name, got, wantGC)
			}
		}
	}
}
