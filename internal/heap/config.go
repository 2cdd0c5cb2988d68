package heap

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Config is the whole collector configuration of a heap. The zero value is
// the default: stop-the-world collection, wholesale promotion. A heap
// stores its Config normalized (see normalized), so the engines read plain
// fields.
//
// Collectors read Tenure, Adaptive and Incremental once, when they are
// constructed on the heap; SliceBudget is read at the start of each
// incremental cycle.
type Config struct {
	// Incremental opts the collectors that support it (marksweep, npms)
	// into incremental collection: marking proceeds in bounded slices
	// between mutator operations behind a Dijkstra insertion barrier, and
	// sweeping happens block by block on the allocation path, so every
	// mutator-visible pause is a slice, a termination phase, or a
	// single-block sweep instead of a whole-heap walk. Other collectors
	// ignore it.
	Incremental bool
	// SliceBudget is the words-per-slice mark budget of incremental
	// collection; values below 1 mean DefaultSliceBudget.
	SliceBudget int
	// Tenure is the promotion threshold of the tenuring collectors
	// (generational, multigen, hybrid): a nursery survivor is evacuated
	// within the nursery until its header age says it has survived
	// Tenure collections. Values below 1 mean 1, wholesale promotion;
	// anything above MaxObjectAge (TenureNever is the name for it) never
	// promotes.
	Tenure int
	// Adaptive hands the threshold, the nursery's effective size and its
	// collection trigger to the feedback controller in internal/policy.
	Adaptive bool
}

// DefaultSliceBudget is the words-per-slice mark budget of a zero Config:
// four blocks of mark work per slice, small enough that slices undercut
// whole-heap pauses by orders of magnitude on the benchmark heaps, large
// enough that slice scheduling overhead stays invisible next to the marking
// itself.
const DefaultSliceBudget = 4 * BlockWords

// TenureNever is a promotion threshold no survivor can reach: the header
// age saturates at MaxObjectAge, far below it, so collectors configured
// with it never promote out of the nursery (survivors overflow to the old
// area only when the survivor shadow runs out of room).
const TenureNever = 1 << 20

// normalized is the one place out-of-range fields are clamped.
func (c Config) normalized() Config {
	if c.SliceBudget < 1 {
		c.SliceBudget = DefaultSliceBudget
	}
	if c.Tenure < 1 {
		c.Tenure = 1
	}
	if c.Tenure > TenureNever {
		c.Tenure = TenureNever
	}
	return c
}

// ConfigFromEnv returns the configuration the RDGC_GC_* environment
// variables name: RDGC_GC_SLICE and RDGC_GC_TENURE take integers
// (RDGC_GC_TENURE also the word "never", for TenureNever); RDGC_GC_INCR and
// RDGC_GC_ADAPT take a strconv.ParseBool value. An unset or malformed
// variable leaves its field at the default.
func ConfigFromEnv() Config {
	num := func(s string) int {
		if n, err := strconv.Atoi(s); err == nil {
			return n
		}
		return 0
	}
	on := func(s string) bool {
		b, _ := strconv.ParseBool(s) // false on error
		return b
	}
	tenure := os.Getenv("RDGC_GC_TENURE")
	c := Config{
		Incremental: on(os.Getenv("RDGC_GC_INCR")),
		SliceBudget: num(os.Getenv("RDGC_GC_SLICE")),
		Tenure:      num(tenure),
		Adaptive:    on(os.Getenv("RDGC_GC_ADAPT")),
	}
	if strings.EqualFold(tenure, "never") {
		c.Tenure = TenureNever
	}
	return c.normalized()
}

// ConfigFlags registers the four -gc* flags on fs, each defaulting to what
// ConfigFromEnv reports, so a flag given on the command line beats the
// environment and the environment beats the built-in default. The returned
// function yields the parsed Config; call it after fs.Parse.
func ConfigFlags(fs *flag.FlagSet) func() Config {
	c := ConfigFromEnv()
	fs.BoolVar(&c.Incremental, "gcincr", c.Incremental, "incremental collection (mark slices + lazy sweep) on the collectors that support it (env RDGC_GC_INCR)")
	fs.IntVar(&c.SliceBudget, "gcslice", c.SliceBudget, "incremental mark slice budget in `words` (env RDGC_GC_SLICE)")
	fs.IntVar(&c.Tenure, "gctenure", c.Tenure, "promotion threshold of the tenuring collectors, in collections survived; 1 = wholesale promotion, ages saturate at 127 so anything above means never (env RDGC_GC_TENURE, which also takes \"never\")")
	fs.BoolVar(&c.Adaptive, "gcadapt", c.Adaptive, "adapt nursery trigger and promotion threshold online from survival statistics (env RDGC_GC_ADAPT)")
	return func() Config { return c.normalized() }
}

// defaultConfig is what New gives a heap built without WithConfig; nil
// means the zero Config. It is process-wide (and atomic) because a driver
// sets it once, from its flags, before fanning cells out across runner
// goroutines that each build their heaps deep inside experiment code.
var defaultConfig atomic.Pointer[Config]

// SetDefaultConfig sets the configuration inherited by heaps subsequently
// created by New without WithConfig.
func SetDefaultConfig(c Config) {
	c = c.normalized()
	defaultConfig.Store(&c)
}

// DefaultConfig returns the configuration New currently hands to fresh
// heaps.
func DefaultConfig() Config {
	if c := defaultConfig.Load(); c != nil {
		return *c
	}
	return Config{}.normalized()
}

// WithConfig builds the heap under c in place of the process default.
func WithConfig(c Config) Option { return func(h *Heap) { h.cfg = c.normalized() } }

// Config reports the heap's configuration, normalized.
func (h *Heap) Config() Config { return h.cfg }
