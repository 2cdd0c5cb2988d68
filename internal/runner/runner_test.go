package runner

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// specGrid builds n cells whose values encode their index and whose sleep
// time *decreases* with the index, so under parallel execution later cells
// finish first and submission-order aggregation is actually exercised.
func specGrid(n int) []Spec[int] {
	specs := make([]Spec[int], n)
	for i := 0; i < n; i++ {
		i := i
		specs[i] = Spec[int]{
			Name: fmt.Sprintf("cell-%d", i),
			Run: func() (int, error) {
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i * 10, nil
			},
			Words: func(v int) uint64 { return uint64(v) },
		}
	}
	return specs
}

func TestResultsInSubmissionOrder(t *testing.T) {
	specs := specGrid(12)
	results := Run(specs, Options{Workers: 4})
	for i, r := range results {
		if r.Index != i || r.Name != specs[i].Name {
			t.Fatalf("result %d is %q (index %d), want %q", i, r.Name, r.Index, specs[i].Name)
		}
		if r.Err != nil {
			t.Fatalf("cell %d failed: %v", i, r.Err)
		}
		if r.Value != i*10 {
			t.Fatalf("cell %d value = %d, want %d", i, r.Value, i*10)
		}
		if i > 0 && r.Words != uint64(i*10) {
			t.Fatalf("cell %d words = %d, want %d", i, r.Words, i*10)
		}
	}
}

func TestPanicBecomesCellError(t *testing.T) {
	specs := []Spec[int]{
		{Name: "ok", Run: func() (int, error) { return 1, nil }},
		{Name: "boom", Run: func() (int, error) { panic("heap overflow") }},
		{Name: "also-ok", Run: func() (int, error) { return 3, nil }},
	}
	results := Run(specs, Options{Workers: 2})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy cells errored: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("panicking cell reported no error")
	}
	if want := `cell "boom" panicked: heap overflow`; results[1].Err.Error() != want {
		t.Fatalf("error = %q, want %q", results[1].Err, want)
	}
	if results[0].Value != 1 || results[2].Value != 3 {
		t.Fatal("healthy cells lost their values")
	}
}

// TestSequentialMatchesParallel formats the same grid's results with one
// worker and with many, and requires byte-identical output — the property
// the drivers' -parallel flag relies on.
func TestSequentialMatchesParallel(t *testing.T) {
	format := func(workers int) string {
		var b strings.Builder
		for _, r := range Run(specGrid(10), Options{Workers: workers}) {
			fmt.Fprintf(&b, "%s value=%d err=%v words=%d\n", r.Name, r.Value, r.Err, r.Words)
		}
		return b.String()
	}
	seq := format(1)
	par := format(8)
	if seq != par {
		t.Fatalf("sequential and parallel output differ:\n--- workers=1\n%s--- workers=8\n%s", seq, par)
	}
}

func TestParallelIsFaster(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-CPU environment")
	}
	grid := specGrid(8) // cells sleep 1..8ms: sequential ≥ 36ms
	start := time.Now()
	Run(grid, Options{Workers: 1})
	seq := time.Since(start)
	start = time.Now()
	Run(grid, Options{Workers: 8})
	par := time.Since(start)
	if par >= seq {
		t.Errorf("8 workers (%v) not faster than 1 worker (%v)", par, seq)
	}
}

func TestDefaultWorkersEnvOverride(t *testing.T) {
	t.Setenv(EnvParallel, "3")
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("DefaultWorkers with %s=3 = %d, want 3", EnvParallel, got)
	}
	t.Setenv(EnvParallel, "not-a-number")
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers with junk env = %d, want GOMAXPROCS", got)
	}
	t.Setenv(EnvParallel, "-2")
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers with negative env = %d, want GOMAXPROCS", got)
	}
}

func TestProgressReportsEveryCell(t *testing.T) {
	var buf bytes.Buffer
	Run(specGrid(5), Options{Workers: 2, Progress: &buf})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("progress wrote %d lines, want 5:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "[1/5] ") || !strings.HasPrefix(lines[4], "[5/5] ") {
		t.Fatalf("progress counters wrong:\n%s", buf.String())
	}
}

func TestEmptyAndOversizedPools(t *testing.T) {
	if got := Run([]Spec[int]{}, Options{Workers: 4}); len(got) != 0 {
		t.Fatalf("empty grid returned %d results", len(got))
	}
	// More workers than cells must not deadlock or drop cells.
	results := Run(specGrid(2), Options{Workers: 16})
	if len(results) != 2 || results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("oversized pool mishandled cells: %+v", results)
	}
}

func TestWordsPerSec(t *testing.T) {
	r := Result[int]{Words: 1000, Wall: time.Second}
	if got := r.WordsPerSec(); got != 1000 {
		t.Fatalf("WordsPerSec = %v, want 1000", got)
	}
	if (Result[int]{}).WordsPerSec() != 0 {
		t.Fatal("zero-work cell must report 0 words/sec")
	}
}

// TestRunClampsOversubscription: Run never has more cells in flight than
// its Workers. Observe the high-water mark of concurrently running cells
// over eight cells at one, two and three workers.
func TestRunClampsOversubscription(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		var mu sync.Mutex
		running, peak := 0, 0
		specs := make([]Spec[int], 8)
		for i := range specs {
			specs[i] = Spec[int]{
				Name: "cell",
				Run: func() (int, error) {
					mu.Lock()
					running++
					peak = max(peak, running)
					mu.Unlock()
					time.Sleep(time.Millisecond)
					mu.Lock()
					running--
					mu.Unlock()
					return 0, nil
				},
			}
		}
		Run(specs, Options{Workers: workers})
		if peak > workers {
			t.Errorf("Workers=%d: peak concurrent cells = %d", workers, peak)
		}
	}
}

// TestFlags: -parallel and -progress parse into Options, and their absence
// leaves the pool size to DefaultWorkers and progress off.
func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want Options
	}{
		{nil, Options{}},
		{[]string{"-parallel", "3"}, Options{Workers: 3}},
		{[]string{"-progress"}, Options{Progress: os.Stderr}},
		{[]string{"-progress", "-parallel", "1"}, Options{Workers: 1, Progress: os.Stderr}},
	} {
		fs := flag.NewFlagSet("driver", flag.ContinueOnError)
		opts := Flags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if got := opts(); got != tc.want {
			t.Errorf("%q: Options = %+v, want %+v", tc.args, got, tc.want)
		}
	}
}
