package heap

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestConfigNormalizedEverywhere pins the one normalization against both
// ways a heap gets its Config: the zero Config a bare New starts from, and
// WithConfig.
func TestConfigNormalizedEverywhere(t *testing.T) {
	defaults := Config{SliceBudget: DefaultSliceBudget, Tenure: 1}
	if got := New().Config(); got != defaults {
		t.Errorf("New() = %+v, want the zero Config normalized, %+v", got, defaults)
	}
	for _, tc := range []struct {
		name     string
		in, want Config
	}{
		{"zero value", Config{}, defaults},
		{"in range", Config{Incremental: true, SliceBudget: 512, Tenure: 7, Adaptive: true},
			Config{Incremental: true, SliceBudget: 512, Tenure: 7, Adaptive: true}},
		{"negative slice", Config{SliceBudget: -3}, defaults},
		{"negative tenure", Config{Tenure: -1}, defaults},
		{"never", Config{Tenure: TenureNever}, Config{SliceBudget: DefaultSliceBudget, Tenure: TenureNever}},
		{"over never", Config{Tenure: TenureNever + 1}, Config{SliceBudget: DefaultSliceBudget, Tenure: TenureNever}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := New(WithConfig(tc.in)).Config(); got != tc.want {
				t.Errorf("New(WithConfig(%+v)) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

// TestConfigFlagsPrecedence: a flag left alone takes the zero Config's
// value, a flag given on the command line wins — including the values that
// used to be "defer to the environment" sentinels — the environment variables
// the flags used to default to change nothing, and the deleted worker-count
// and allocation-buffer flags are unknown to the parser.
func TestConfigFlagsPrecedence(t *testing.T) {
	env := map[string]string{
		"RDGC_GC_INCR": "1", "RDGC_GC_SLICE": "777", "RDGC_GC_TENURE": "8", "RDGC_GC_ADAPT": "1",
		"RDGC_GC_WORKERS": "4", "RDGC_GC_LAB": "1",
	}
	defaults := Config{SliceBudget: DefaultSliceBudget, Tenure: 1}
	with := func(edit func(c *Config)) Config {
		c := defaults
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		env  map[string]string
		args []string
		want Config
	}{
		{"nothing set", nil, nil, defaults},
		{"flags only", nil, []string{"-gcincr", "-gcslice", "64", "-gctenure", "3", "-gcadapt"},
			Config{Incremental: true, SliceBudget: 64, Tenure: 3, Adaptive: true}},
		{"env only", env, nil, defaults},
		{"-gcincr=false", env, []string{"-gcincr=false"}, defaults},
		{"-gcslice 64", env, []string{"-gcslice", "64"}, with(func(c *Config) { c.SliceBudget = 64 })},
		{"-gctenure 3", env, []string{"-gctenure", "3"}, with(func(c *Config) { c.Tenure = 3 })},
		{"-gctenure 1", env, []string{"-gctenure", "1"}, defaults},
		{"-gcadapt=false", env, []string{"-gcadapt=false"}, defaults},
		{"out of range flags are normalized", env, []string{"-gcslice", "0", "-gctenure", "2000000"},
			with(func(c *Config) { c.Tenure = TenureNever })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for name := range env {
				t.Setenv(name, tc.env[name])
			}
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			parsed := ConfigFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			if got := parsed(); got != tc.want {
				t.Errorf("%v under %v parsed to %+v, want %+v", tc.args, tc.env, got, tc.want)
			}
		})
	}
	for _, args := range [][]string{{"-gcworkers", "2"}, {"-gcworkers", "0"}, {"-gclab=false"}} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			ConfigFlags(fs)
			if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Errorf("%v parsed with error %v, want the flag undefined", args, err)
			}
		})
	}
}
