package heap

import (
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Age-based tenuring configuration and the Evacuator's age routing.
//
// Tenuring is an opt-in, per-heap configuration mirroring the parallel and
// incremental knobs (parallel.go, incr.go): a heap with GCTenure() == 1
// (the default) promotes nursery survivors wholesale, through plain Begin
// runs that read nothing in this file. A threshold of n >= 2 makes
// supporting collectors evacuate a nursery survivor *within* the nursery
// (into a survivor shadow space) until the side age table says it has
// survived n collections, and only then promote it. GCAdaptive() hands the
// threshold — plus the nursery's effective size and collection trigger —
// to the feedback controller in internal/policy, fed by the per-age-class
// survival counters the tenured evacuator collects below.

// EnvGCTenure is the environment variable the drivers consult when their
// -gctenure flag is left at its default: a positive integer sets the
// promotion threshold (1 = wholesale promotion), and the word "never"
// selects TenureNever.
const EnvGCTenure = "RDGC_GC_TENURE"

// EnvGCAdapt is the environment variable the drivers consult when their
// -gcadapt flag is left at its default: a truthy strconv.ParseBool value
// puts supporting collectors under the adaptive policy controller.
const EnvGCAdapt = "RDGC_GC_ADAPT"

// TenureNever is a promotion threshold no survivor can reach: the side age
// table saturates at MaxObjectAge, far below it, so collectors configured
// with it never promote out of the nursery (survivors overflow to the old
// area only when the survivor shadow runs out of room).
const TenureNever = 1 << 20

// TenureAgeClasses is the number of age classes the tenured evacuator
// resolves in its per-collection survival counters (the last class pools
// everything older). internal/policy sizes its EWMA tables to match.
const TenureAgeClasses = 16

// defaultGCTenure and defaultGCAdapt seed every heap created by New,
// mirroring defaultGCWorkers. A zero defaultGCTenure means "unset" and
// resolves to 1 (wholesale promotion).
var (
	defaultGCTenure atomic.Int32
	defaultGCAdapt  atomic.Bool
)

// SetDefaultGCTenure sets the promotion threshold inherited by heaps
// subsequently created with New. Values below 1 restore the unset state
// (wholesale promotion).
func SetDefaultGCTenure(n int) {
	if n < 1 {
		n = 0
	}
	if n > TenureNever {
		n = TenureNever
	}
	defaultGCTenure.Store(int32(n))
}

// DefaultGCTenure returns the promotion threshold New currently hands to
// fresh heaps (1 = wholesale promotion).
func DefaultGCTenure() int {
	if v := defaultGCTenure.Load(); v > 0 {
		return int(v)
	}
	return 1
}

// SetDefaultGCAdaptive sets the adaptive-policy mode inherited by heaps
// subsequently created with New.
func SetDefaultGCAdaptive(on bool) { defaultGCAdapt.Store(on) }

// DefaultGCAdaptive returns the adaptive mode New currently hands to fresh
// heaps.
func DefaultGCAdaptive() bool { return defaultGCAdapt.Load() }

// GCTenureFromEnv returns the promotion threshold requested by
// RDGC_GC_TENURE, or 1 (wholesale) when the variable is unset or not a
// positive integer. The value "never" selects TenureNever.
func GCTenureFromEnv() int {
	if s := os.Getenv(EnvGCTenure); s != "" {
		if strings.EqualFold(s, "never") {
			return TenureNever
		}
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			if n > TenureNever {
				return TenureNever
			}
			return n
		}
	}
	return 1
}

// GCAdaptFromEnv reports whether RDGC_GC_ADAPT requests the adaptive
// policy controller.
func GCAdaptFromEnv() bool {
	if s := os.Getenv(EnvGCAdapt); s != "" {
		if on, err := strconv.ParseBool(s); err == nil {
			return on
		}
	}
	return false
}

// ResolveGCTenure implements the drivers' flag/env precedence for the
// promotion threshold: a flag value >= 1 is explicit and wins, while the
// default sentinel 0 defers to RDGC_GC_TENURE (which itself falls back to
// wholesale promotion).
func ResolveGCTenure(flagValue int) int {
	if flagValue >= 1 {
		if flagValue > TenureNever {
			return TenureNever
		}
		return flagValue
	}
	return GCTenureFromEnv()
}

// SetGCTenure configures this heap's promotion threshold. Values below 1
// restore wholesale promotion. Collectors read the setting at construction
// time, so it must be set before the collector's New.
func (h *Heap) SetGCTenure(n int) {
	if n < 1 {
		n = 1
	}
	if n > TenureNever {
		n = TenureNever
	}
	h.gcTenure = n
}

// GCTenure reports this heap's promotion threshold (1 = wholesale).
func (h *Heap) GCTenure() int {
	if h.gcTenure < 1 {
		return 1
	}
	return h.gcTenure
}

// SetGCAdaptive configures this heap's adaptive-policy mode. Collectors
// read the setting at construction time, like SetGCTenure.
func (h *Heap) SetGCAdaptive(on bool) { h.gcAdapt = on }

// GCAdaptive reports whether this heap requests the adaptive policy
// controller.
func (h *Heap) GCAdaptive() bool { return h.gcAdapt }

// Tenurer is implemented by collectors that support age-based nursery
// tenuring; tests and the age oracle use it to reach the age-carrying
// spaces and the policy in effect without knowing the collector.
type Tenurer interface {
	// TenureThreshold reports the promotion threshold currently in effect
	// (1 = wholesale promotion; it can move between collections under the
	// adaptive controller).
	TenureThreshold() int
	// YoungSpaces returns the spaces whose objects carry side-table ages:
	// the active nursery first, then the survivor shadow (absent under
	// wholesale promotion).
	YoungSpaces() []*Space
	// Adaptive reports whether the policy controller is driving the
	// threshold and nursery trigger.
	Adaptive() bool
}

// tenureState is the Evacuator's age-routing attachment, allocated on
// first BeginTenured and reused so steady-state tenured collections
// allocate nothing.
type tenureState struct {
	threshold int

	// young are the survivor targets: copies that stay below the threshold
	// land here, oldest-reserved first, with their advanced age written
	// into the target's side table. youngScan are their Cheney cursors.
	young     []*Space
	youngScan []int

	// survByAge counts surviving words by *pre-collection* age class and
	// retainedByAge the subset kept in the nursery by *post-increment* age
	// class — exactly the populations the policy controller's survival
	// EWMAs need (retainedByAge this round is the at-risk population of
	// classes >= 1 next round).
	survByAge     [TenureAgeClasses]uint64
	retainedByAge [TenureAgeClasses]uint64
}

// BeginTenured re-arms the evacuator for an age-aware nursery collection:
// survivors whose incremented age stays below threshold are copied into
// the young targets (age advanced in the side table), everyone else — and
// any survivor the full young targets cannot hold — is promoted into the
// old targets. The run then goes through the ordinary Slot / EvacuateRoots
// / Drain entry points, which route by age until the next Begin.
// threshold should be >= 2: threshold 1 is wholesale promotion, which
// collectors run through plain Begin (the adaptive harness may still drive
// threshold 1 through here to keep its survival counters flowing; the copy
// order and images are identical either way, since every survivor takes
// the old-target reserve path).
//
// A tenured run drains sequentially at any worker count; it honors the
// heap's move hook.
func (e *Evacuator) BeginTenured(threshold int, young []*Space, old ...*Space) {
	e.Begin(old...)
	if e.ten == nil {
		e.ten = &tenureState{}
	}
	e.tenured = true
	t := e.ten
	t.threshold = threshold
	t.young = append(t.young[:0], young...)
	t.youngScan = t.youngScan[:0]
	for _, y := range young {
		y.EnsureAgeTable()
		t.youngScan = append(t.youngScan, y.Top)
	}
	t.survByAge = [TenureAgeClasses]uint64{}
	t.retainedByAge = [TenureAgeClasses]uint64{}
}

// SurvivorsByAge returns the last tenured run's surviving words by
// pre-collection age class and the retained subset by post-increment age
// class. Valid until the next BeginTenured.
func (e *Evacuator) SurvivorsByAge() (surv, retained *[TenureAgeClasses]uint64) {
	return &e.ten.survByAge, &e.ten.retainedByAge
}

// reserveByAge is a tenured run's reserve: the survivor's age is read from
// the from-space side table, incremented, and compared against the
// threshold to pick the survivor shadow or the promotion targets for the
// n-word object at s[off].
func (e *Evacuator) reserveByAge(s *Space, off, n int) (*Space, int) {
	t := e.ten
	age := s.AgeAt(off)
	newAge := age + 1
	if newAge > MaxObjectAge {
		newAge = MaxObjectAge
	}
	t.survByAge[ageClass(age)] += uint64(n)
	if newAge < t.threshold {
		for _, y := range t.young {
			if toOff, ok := y.Bump(n); ok {
				y.SetAgeAt(toOff, newAge)
				e.WordsRetained += uint64(n)
				t.retainedByAge[ageClass(newAge)] += uint64(n)
				return y, toOff
			}
		}
	}
	// At or past the threshold — or the survivor shadow is full, in which
	// case the survivor is promoted prematurely (the standard
	// overflow-tenuring safety valve).
	e.WordsPromoted += uint64(n)
	return e.reserve(n)
}

// ageClass pools ages beyond the resolved classes into the last one.
func ageClass(age int) int {
	if age >= TenureAgeClasses {
		return TenureAgeClasses - 1
	}
	return age
}
