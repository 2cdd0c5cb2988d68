package main

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rdgc/internal/cmdtest"
	"rdgc/internal/gc/collectors"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestGCModeSpellings: each collector mode's flags reach the shard heaps,
// and the report header names the mode, or n/a for a knob the collector
// does not honour.
func TestGCModeSpellings(t *testing.T) {
	outs := cmdtest.CheckGCSpellings(t, []string{
		"-collector", "generational", "-shards", "2", "-horizon", "6000", "-heap", "8192", "-seed", "7",
	}, nil)
	for i, want := range []string{
		"wpt=64 incr=n/a adapt=off tenure=1",
		"wpt=64 incr=n/a adapt=off tenure=1",
		"wpt=64 incr=n/a adapt=off tenure=3",
		"wpt=64 incr=n/a adapt=on tenure=1",
	} {
		if !strings.Contains(outs[i], want) {
			t.Errorf("run %d: report does not say %q:\n%s", i, want, outs[i])
		}
	}
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-collector", "semispace", "-gcincr", "-gctenure", "4", "-gcadapt"}, "wpt=64 incr=n/a adapt=n/a tenure=n/a"},
		{[]string{"-collector", "marksweep", "-gcincr"}, "wpt=64 incr=on adapt=n/a tenure=n/a"},
	} {
		out := cmdtest.Run(t, nil, append(tc.flags, "-shards", "2", "-horizon", "6000", "-heap", "8192", "-seed", "7")...)
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: report does not say %q:\n%s", tc.flags, tc.want, out)
		}
	}
}

// TestIncrementalRunsRepeat: under every collector the table lists as
// incremental, whose lazy sweeps run inside the shard loop, one seed and
// configuration print the same bytes run to run and on one runner worker:
// the words-as-time clock admits no wall time.
func TestIncrementalRunsRepeat(t *testing.T) {
	incr := collectors.Honouring(collectors.Incremental)
	if len(incr) == 0 {
		t.Fatal("the collector table lists no incremental collector")
	}
	for _, e := range incr {
		t.Run(e.Name, func(t *testing.T) {
			args := []string{"-collector", e.Name, "-gcincr", "-shards", "4", "-horizon", "20000", "-heap", "16384", "-seed", "42", "-arrival", "mmpp"}
			a := cmdtest.Run(t, nil, args...)
			if !strings.Contains(a, "incr=on") {
				t.Fatalf("the report does not say incr=on:\n%s", a)
			}
			if b := cmdtest.Run(t, nil, args...); b != a {
				t.Errorf("a rerun printed other bytes:\n%s\nthen\n%s", a, b)
			}
			if c := cmdtest.Run(t, nil, append(args, "-parallel", "1")...); c != a {
				t.Errorf("-parallel 1 printed other bytes:\n%s\nthen\n%s", a, c)
			}
		})
	}
}

// TestSmallHeapReportsTheHeapThatRan: a -heap below the grid's floor builds
// the floor's collectors, and the report says so: the run prints the bytes
// of the run at the floor, header included.
func TestSmallHeapReportsTheHeapThatRan(t *testing.T) {
	args := []string{"-horizon", "3000", "-shards", "1", "-collector", "semispace"}
	small := cmdtest.Run(t, nil, append(args, "-heap", "1000")...)
	floor := cmdtest.Run(t, nil, append(args, "-heap", strconv.Itoa(collectors.GridFloor))...)
	if small != floor {
		t.Errorf("-heap 1000 printed\n%s\n-heap %d printed\n%s", small, collectors.GridFloor, floor)
	}
}

// TestNegativeSizingIsUsageError: not a makeslice panic out of serve.Run
// (-shards), a report of zero latencies (-wpt), or a silently substituted
// heap (-heap).
func TestNegativeSizingIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-shards", "-1"}, {"-wpt", "-3"}, {"-heap", "-5"}} {
		stdout, stderr, status := cmdtest.Exit(t, nil, append(args, "-horizon", "2000")...)
		want := "gcserve: " + args[0] + " " + args[1] + ": "
		if status != 2 || stdout != "" || !strings.Contains(stderr, want) {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q; want status 2, no stdout, stderr naming %q",
				args, status, stdout, stderr, want)
		}
	}
}

// jsonKeys are the key paths of gcserve -json: an object's keys joined with
// dots, an array's elements as "[]".
var jsonKeys = []string{
	"Agg.Collections", "Agg.Footprint", "Agg.GCPauses.Buckets[]", "Agg.GCPauses.Count",
	"Agg.GCPauses.MaxWords", "Agg.GCPauses.TotalWords", "Agg.Latency.Buckets[]",
	"Agg.Latency.Count", "Agg.Latency.MaxWords", "Agg.Latency.TotalWords", "Agg.Major",
	"Agg.Makespan", "Agg.Requests", "Agg.Sessions", "Agg.WordsAlloc", "Agg.WordsPause",
	"Cfg.Adaptive", "Cfg.Collector", "Cfg.HeapWords", "Cfg.Incremental",
	"Cfg.Load.Arrival", "Cfg.Load.BurstEvery", "Cfg.Load.BurstRate",
	"Cfg.Load.BurstTicks", "Cfg.Load.HorizonTicks", "Cfg.Load.Profiles[]",
	"Cfg.Load.RequestEvery", "Cfg.Load.RequestWords", "Cfg.Load.RetainWords",
	"Cfg.Load.Seed", "Cfg.Load.SessionAlpha", "Cfg.Load.SessionEvery",
	"Cfg.Load.SessionMinTicks", "Cfg.Load.SessionSlots", "Cfg.Parallel", "Cfg.Shards",
	"Cfg.SliceBudget", "Cfg.Tenure", "Cfg.WordsPerTick",
	"Shards[].FinalTick", "Shards[].Footprint", "Shards[].Requests", "Shards[].Sessions",
	"Shards[].Shard", "Shards[].WordsAlloc", "Shards[].WordsPause",
	"Shards[].GC.BarrierShades", "Shards[].GC.Collections",
	"Shards[].GC.MajorCollections", "Shards[].GC.Pauses.Buckets[]",
	"Shards[].GC.Pauses.Count", "Shards[].GC.Pauses.MaxWords",
	"Shards[].GC.Pauses.TotalWords", "Shards[].GC.PeakLive",
	"Shards[].GC.PolicyAdaptations", "Shards[].GC.RemsetPeak",
	"Shards[].GC.RemsetScanned", "Shards[].GC.TenureThreshold", "Shards[].GC.WordsCopied",
	"Shards[].GC.WordsMarked", "Shards[].GC.WordsPromoted", "Shards[].GC.WordsSwept",
	"Shards[].GC.WordsTenured",
	"Shards[].Latency.Buckets[]", "Shards[].Latency.Count", "Shards[].Latency.MaxWords",
	"Shards[].Latency.TotalWords",
}

// TestJSONKeys pins the key set of gcserve -json for one collector, so that
// a field deleted from, added to or renamed in what the report writes
// (serve.Result, its shards' heap.GCStats) fails here by name rather than
// changing the machine output unseen.
func TestJSONKeys(t *testing.T) {
	out := cmdtest.Run(t, nil, "-json", "-collector", "generational", "-shards", "2", "-horizon", "6000", "-heap", "8192", "-seed", "7")
	var v any
	if err := json.Unmarshal([]byte(out), &v); err != nil {
		t.Fatalf("gcserve -json: %v", err)
	}
	var got []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				if path != "" {
					k = path + "." + k
				}
				walk(k, e)
			}
		case []any:
			for _, e := range v {
				walk(path+"[]", e)
			}
			if len(v) == 0 {
				got = append(got, path+"[]")
			}
		default:
			got = append(got, path)
		}
	}
	walk("", v)
	slices.Sort(got)
	got = slices.Compact(got)
	for _, k := range jsonKeys {
		if _, found := slices.BinarySearch(got, k); !found {
			t.Errorf("gcserve -json lost the key %s", k)
		}
	}
	for _, k := range got {
		if !slices.Contains(jsonKeys, k) {
			t.Errorf("gcserve -json has a key the test does not pin: %s", k)
		}
	}
}
