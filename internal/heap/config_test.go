package heap

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// TestMain seeds the process default from the environment, the way the
// drivers do, so CI's RDGC_GC_* passes reach every heap these tests build
// with a bare New.
func TestMain(m *testing.M) {
	SetDefaultConfig(ConfigFromEnv())
	os.Exit(m.Run())
}

// TestEnvReachesHeaps is gctest.CheckEnvReachesHeaps, written out here
// because gctest imports this package.
func TestEnvReachesHeaps(t *testing.T) {
	if got, want := New().Config(), ConfigFromEnv(); got != want {
		t.Fatalf("New() is configured %+v, the environment names %+v", got, want)
	}
}

// gcEnvNames are the variables ConfigFromEnv reads, then the two it used to
// read for the deleted parallel engines' worker count and allocation
// buffers, which must stay inert in an environment that still sets them.
var gcEnvNames = []string{"RDGC_GC_INCR", "RDGC_GC_SLICE", "RDGC_GC_TENURE", "RDGC_GC_ADAPT", "RDGC_GC_WORKERS", "RDGC_GC_LAB"}

// setGCEnv gives the test an environment holding exactly env's RDGC_GC_*
// variables (an empty value reads as unset).
func setGCEnv(t *testing.T, env map[string]string) {
	t.Helper()
	for _, name := range gcEnvNames {
		t.Setenv(name, env[name])
	}
}

func TestConfigFromEnv(t *testing.T) {
	defaults := Config{SliceBudget: DefaultSliceBudget, Tenure: 1}
	with := func(edit func(c *Config)) Config {
		c := defaults
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		env  map[string]string
		want Config
	}{
		{"unset", nil, defaults},

		// The engines are sequential: a worker count or allocation-buffer
		// switch left in the environment changes nothing.
		{"workers", map[string]string{"RDGC_GC_WORKERS": "6"}, defaults},
		{"workers zero", map[string]string{"RDGC_GC_WORKERS": "0"}, defaults},
		{"workers negative", map[string]string{"RDGC_GC_WORKERS": "-2"}, defaults},
		{"workers malformed", map[string]string{"RDGC_GC_WORKERS": "not-a-number"}, defaults},

		{"lab", map[string]string{"RDGC_GC_LAB": "1"}, defaults},
		{"lab spelled out", map[string]string{"RDGC_GC_LAB": "true"}, defaults},
		{"lab off", map[string]string{"RDGC_GC_LAB": "0"}, defaults},
		{"lab malformed", map[string]string{"RDGC_GC_LAB": "yes please"}, defaults},

		{"incr", map[string]string{"RDGC_GC_INCR": "1"}, with(func(c *Config) { c.Incremental = true })},
		{"incr malformed", map[string]string{"RDGC_GC_INCR": "nonsense"}, defaults},

		{"slice", map[string]string{"RDGC_GC_SLICE": "777"}, with(func(c *Config) { c.SliceBudget = 777 })},
		{"slice zero", map[string]string{"RDGC_GC_SLICE": "0"}, defaults},
		{"slice negative", map[string]string{"RDGC_GC_SLICE": "-9"}, defaults},
		{"slice malformed", map[string]string{"RDGC_GC_SLICE": "4k"}, defaults},

		{"tenure", map[string]string{"RDGC_GC_TENURE": "15"}, with(func(c *Config) { c.Tenure = 15 })},
		{"tenure wholesale", map[string]string{"RDGC_GC_TENURE": "1"}, defaults},
		{"tenure never", map[string]string{"RDGC_GC_TENURE": "never"}, with(func(c *Config) { c.Tenure = TenureNever })},
		{"tenure NEVER", map[string]string{"RDGC_GC_TENURE": "Never"}, with(func(c *Config) { c.Tenure = TenureNever })},
		{"tenure over never", map[string]string{"RDGC_GC_TENURE": "99999999"}, with(func(c *Config) { c.Tenure = TenureNever })},
		{"tenure out of int range", map[string]string{"RDGC_GC_TENURE": "99999999999999999999"}, defaults},
		{"tenure zero", map[string]string{"RDGC_GC_TENURE": "0"}, defaults},
		{"tenure negative", map[string]string{"RDGC_GC_TENURE": "-4"}, defaults},
		{"tenure malformed", map[string]string{"RDGC_GC_TENURE": "bogus"}, defaults},

		{"adapt", map[string]string{"RDGC_GC_ADAPT": "1"}, with(func(c *Config) { c.Adaptive = true })},
		{"adapt malformed", map[string]string{"RDGC_GC_ADAPT": "junk"}, defaults},

		{"all four", map[string]string{
			"RDGC_GC_INCR": "1", "RDGC_GC_SLICE": "64", "RDGC_GC_TENURE": "6", "RDGC_GC_ADAPT": "1",
		}, Config{Incremental: true, SliceBudget: 64, Tenure: 6, Adaptive: true}},
		{"all six", map[string]string{
			"RDGC_GC_WORKERS": "4", "RDGC_GC_LAB": "1", "RDGC_GC_INCR": "1",
			"RDGC_GC_SLICE": "64", "RDGC_GC_TENURE": "6", "RDGC_GC_ADAPT": "1",
		}, Config{Incremental: true, SliceBudget: 64, Tenure: 6, Adaptive: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setGCEnv(t, tc.env)
			if got := ConfigFromEnv(); got != tc.want {
				t.Errorf("ConfigFromEnv() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestConfigNormalizedEverywhere pins the one normalization against every
// way a Config reaches a heap: the process default a bare New inherits, and
// WithConfig.
func TestConfigNormalizedEverywhere(t *testing.T) {
	prev := DefaultConfig()
	t.Cleanup(func() { SetDefaultConfig(prev) })

	defaults := Config{SliceBudget: DefaultSliceBudget, Tenure: 1}
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
			SetDefaultConfig(tc.in)
			if got := DefaultConfig(); got != tc.want {
				t.Errorf("DefaultConfig() = %+v after SetDefaultConfig(%+v), want %+v", got, tc.in, tc.want)
			}
			if got := New().Config(); got != tc.want {
				t.Errorf("New() inherited %+v, want the process default %+v", got, tc.want)
			}
			SetDefaultConfig(Config{Tenure: 9, Adaptive: true})
			h := New(WithConfig(tc.in))
			if got := h.Config(); got != tc.want {
				t.Errorf("New(WithConfig(%+v)) = %+v, want %+v with nothing inherited", tc.in, got, tc.want)
			}
		})
	}
}

// TestConfigFlagsPrecedence: a flag left alone takes the environment's
// value, a flag given on the command line wins — including the values that
// used to be "defer to the environment" sentinels — and the deleted
// worker-count and allocation-buffer flags are unknown to the parser.
func TestConfigFlagsPrecedence(t *testing.T) {
	env := map[string]string{
		"RDGC_GC_INCR": "1", "RDGC_GC_SLICE": "777", "RDGC_GC_TENURE": "8", "RDGC_GC_ADAPT": "1",
	}
	fromEnv := Config{Incremental: true, SliceBudget: 777, Tenure: 8, Adaptive: true}
	with := func(edit func(c *Config)) Config {
		c := fromEnv
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		env  map[string]string
		args []string
		want Config
	}{
		{"nothing set", nil, nil, Config{SliceBudget: DefaultSliceBudget, Tenure: 1}},
		{"flags only", nil, []string{"-gcincr", "-gcslice", "64", "-gctenure", "3", "-gcadapt"},
			Config{Incremental: true, SliceBudget: 64, Tenure: 3, Adaptive: true}},
		{"env only", env, nil, fromEnv},
		{"-gcincr=false", env, []string{"-gcincr=false"}, with(func(c *Config) { c.Incremental = false })},
		{"-gcslice 64", env, []string{"-gcslice", "64"}, with(func(c *Config) { c.SliceBudget = 64 })},
		{"-gctenure 3", env, []string{"-gctenure", "3"}, with(func(c *Config) { c.Tenure = 3 })},
		{"-gctenure 1", env, []string{"-gctenure", "1"}, with(func(c *Config) { c.Tenure = 1 })},
		{"-gcadapt=false", env, []string{"-gcadapt=false"}, with(func(c *Config) { c.Adaptive = false })},
		{"out of range flags are normalized", env, []string{"-gcslice", "0", "-gctenure", "2000000"},
			with(func(c *Config) { c.SliceBudget, c.Tenure = DefaultSliceBudget, TenureNever })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setGCEnv(t, tc.env)
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
			setGCEnv(t, env)
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			ConfigFlags(fs)
			if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Errorf("%v parsed with error %v, want the flag undefined", args, err)
			}
		})
	}
}
