package gcfuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rdgc/internal/gc/generational"
	"rdgc/internal/heap"
)

// seedPrograms are the hand-written corpus: each stresses a different slice
// of the op space. The same programs are checked in under
// testdata/fuzz/FuzzCollectors (regenerate with `go test -run TestWriteSeedCorpus
// -write-seeds` after changing them), where plain `go test` replays them as
// regression inputs and `go test -fuzz` mutates them.
func seedPrograms() [][]byte {
	zeros := make([]byte, 64)
	ramp := make([]byte, 256)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	gcHeavy := bytes.Repeat([]byte{0, 1, 2, 3, 12, 0, 5, 9, 14, 8, 8, 13}, 16)
	boxes := bytes.Repeat([]byte{10, 1, 2, 3, 11, 4, 5, 6}, 24)
	churnVerify := bytes.Repeat([]byte{8, 12, 13}, 40)
	mixed := make([]byte, 1024)
	for i := range mixed {
		mixed[i] = byte(i*37 + 11)
	}
	// tenureChurn builds structure and churns without forcing majors, so
	// nursery pressure drives many minors and survivors age several rounds
	// before the threshold catches them (byte 2 selects threshold 6 in the
	// tenured replay pass).
	tenureChurn := bytes.Repeat([]byte{0, 1, 2, 3, 8, 5, 9, 8, 8, 13}, 40)
	// agingWave is mutator ops only — every collection is allocation
	// triggered, the regime where retained survivors ride the nursery flip
	// over and over.
	agingWave := make([]byte, 512)
	for i := range agingWave {
		agingWave[i] = byte((i*7 + 3) % 12)
	}
	return [][]byte{zeros, ramp, gcHeavy, boxes, churnVerify, mixed, tenureChurn, agingWave}
}

// censusFor derives the census mode from the program so the fuzzer explores
// both heap layouts by flipping one byte.
func censusFor(prog []byte) bool {
	return len(prog) > 0 && prog[0]&1 == 0
}

func FuzzCollectors(f *testing.F) {
	for _, p := range seedPrograms() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		for _, m := range Modes(heap.Config{}, prog) {
			if err := RunAll(prog, censusFor(prog), m.Config); err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
		}
	})
}

// TestSeedCorpus replays every checked-in corpus file through every
// collector in both census modes, exercising the codec along the way.
func TestSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCollectors")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading seed corpus: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("seed corpus is empty")
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := UnmarshalCorpus(data)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for _, census := range []bool{false, true} {
			for _, m := range Modes(heap.Config{}, prog) {
				if err := RunAll(prog, census, m.Config); err != nil {
					t.Errorf("%s (census=%v, %s): %v", e.Name(), census, m.Name, err)
				}
			}
		}
	}
}

var writeSeeds = os.Getenv("GCFUZZ_WRITE_SEEDS") != ""

// TestWriteSeedCorpus regenerates the checked-in corpus files from
// seedPrograms when GCFUZZ_WRITE_SEEDS is set; otherwise it verifies that
// the files match the programs, so the two never drift apart.
func TestWriteSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCollectors")
	for i, p := range seedPrograms() {
		path := filepath.Join(dir, filepathSeedName(i))
		want := MarshalCorpus(p)
		if writeSeeds {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (set GCFUZZ_WRITE_SEEDS=1 to regenerate)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is out of date (set GCFUZZ_WRITE_SEEDS=1 to regenerate)", path)
		}
	}
}

func filepathSeedName(i int) string {
	names := []string{"seed-zeros", "seed-ramp", "seed-gc-heavy", "seed-boxes", "seed-churn-verify", "seed-mixed",
		"seed-tenure-churn", "seed-aging-wave"}
	return names[i]
}

// ageCorrupter hijacks the program's first collect op once an aged object
// exists: instead of collecting, it bumps one live object's header age
// by one and swallows this and every later collect op, so only allocation-
// triggered minor collections follow — the next of which must trip the age
// oracle on the corrupted entry.
type ageCorrupter struct {
	heap.Collector
	h    *heap.Heap
	ten  heap.Tenurer
	done bool
}

func (a *ageCorrupter) Collect() {
	if a.done {
		return
	}
	for _, s := range a.ten.YoungSpaces() {
		heap.WalkSpace(s, func(off int, hdr heap.Word) bool {
			if age := heap.HeaderAge(hdr); age > 0 && age < heap.MaxObjectAge {
				s.Mem[off] = heap.WithHeaderAge(hdr, age+1)
				a.done = true
				return false
			}
			return true
		})
		if a.done {
			return
		}
	}
	a.Collector.Collect()
}

// TestTenuredRunDetectsBadAge is the regression guard for the tenured fuzz
// harness: a single corrupted age in a header must surface as a run failure
// through the age oracle.
func TestTenuredRunDetectsBadAge(t *testing.T) {
	prog := seedPrograms()[6] // seed-tenure-churn: minors retain and age survivors
	corr := &ageCorrupter{}
	mk := func(h *heap.Heap) heap.Collector {
		return generational.New(h, 1024, 16384, generational.WithExpansion(2))
	}
	wrap := func(h *heap.Heap, c heap.Collector) heap.Collector {
		corr.h, corr.Collector = h, c
		corr.ten = c.(heap.Tenurer)
		return corr
	}
	_, err := Run(prog, mk, false, heap.Config{Tenure: heap.TenureNever}, wrap)
	if !corr.done {
		t.Fatal("the program never retained an aged object to corrupt")
	}
	if err == nil {
		t.Fatal("a corrupted header age went undetected")
	}
	t.Logf("detected as: %v", err)
}

func TestRunDeterministic(t *testing.T) {
	prog := seedPrograms()[5]
	for _, nc := range Collectors() {
		a, err := Run(prog, nc.New, true, heap.Config{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", nc.Name, err)
		}
		b, err := Run(prog, nc.New, true, heap.Config{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", nc.Name, err)
		}
		if a != b {
			t.Errorf("%s: two runs of the same program diverged: %+v vs %+v", nc.Name, a, b)
		}
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	for _, p := range seedPrograms() {
		got, err := UnmarshalCorpus(MarshalCorpus(p))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("round trip changed program: %v -> %v", p, got)
		}
	}
	// Raw bytes pass through untouched.
	raw := []byte{1, 2, 3}
	got, err := UnmarshalCorpus(raw)
	if err != nil || !bytes.Equal(got, raw) {
		t.Errorf("raw program mangled: %v, %v", got, err)
	}
}

func TestMinimize(t *testing.T) {
	prog := make([]byte, 300)
	for i := range prog {
		prog[i] = byte(i)
	}
	prog[137] = 0x2a
	fails := func(p []byte) bool { return bytes.IndexByte(p, 0x2a) >= 0 }
	min := Minimize(prog, fails)
	if !fails(min) {
		t.Fatal("minimized program no longer fails")
	}
	if len(min) != 1 || min[0] != 0x2a {
		t.Errorf("minimized to %v, want [42]", min)
	}
}

func TestByteSourceExhaustion(t *testing.T) {
	src := &byteSource{data: []byte{7}}
	if got := src.Intn(16); got != 7 {
		t.Errorf("Intn = %d, want 7", got)
	}
	if !src.done() {
		t.Error("source should be exhausted")
	}
	if got := src.Intn(16); got != 0 {
		t.Errorf("exhausted Intn = %d, want 0", got)
	}
	if got := src.Int63n(1000); got != 0 {
		t.Errorf("exhausted Int63n = %d, want 0", got)
	}
	big := &byteSource{data: []byte{1, 1}}
	if got := big.Intn(1000); got != 257 {
		t.Errorf("two-byte Intn = %d, want 257", got)
	}
}
