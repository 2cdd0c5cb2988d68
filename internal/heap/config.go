package heap

import "flag"

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

// ConfigFlags registers the four -gc* flags on fs, each defaulting to the
// zero Config's value. The returned function yields the parsed Config,
// normalized; call it after fs.Parse and hand it to the heaps through
// WithConfig.
func ConfigFlags(fs *flag.FlagSet) func() Config {
	c := Config{}.normalized()
	fs.BoolVar(&c.Incremental, "gcincr", c.Incremental, "incremental collection (mark slices + lazy sweep) on the collectors that support it")
	fs.IntVar(&c.SliceBudget, "gcslice", c.SliceBudget, "incremental mark slice budget in `words`")
	fs.IntVar(&c.Tenure, "gctenure", c.Tenure, "promotion threshold of the tenuring collectors, in collections survived; 1 = wholesale promotion, ages saturate at 127 so anything above means never")
	fs.BoolVar(&c.Adaptive, "gcadapt", c.Adaptive, "adapt nursery trigger and promotion threshold online from survival statistics")
	return func() Config { return c.normalized() }
}

// WithConfig builds the heap under c in place of the zero Config.
func WithConfig(c Config) Option { return func(h *Heap) { h.cfg = c.normalized() } }

// Config reports the heap's configuration, normalized.
func (h *Heap) Config() Config { return h.cfg }
