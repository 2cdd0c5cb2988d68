package heap

// The Evacuator's age routing, which the tenuring collectors arm when
// Config.Tenure >= 2 or Config.Adaptive is set. With neither, survivors are
// promoted wholesale through plain Begin runs that read nothing in this file.
// The per-age-class survival counters collected below feed the adaptive
// controller.

// TenureAgeClasses is the number of age classes the tenured evacuator
// resolves in its per-collection survival counters (the last class pools
// everything older). internal/policy sizes its EWMA tables to match.
const TenureAgeClasses = 16

// Tenurer is implemented by collectors that support age-based nursery
// tenuring; tests and the age oracle use it to reach the age-carrying
// spaces and the policy in effect without knowing the collector.
type Tenurer interface {
	// TenureThreshold reports the promotion threshold currently in effect
	// (1 = wholesale promotion; it can move between collections under the
	// adaptive controller).
	TenureThreshold() int
	// YoungSpaces returns the spaces whose objects' header ages count:
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
	// land here, oldest-reserved first, their advanced age in their
	// headers. youngScan are their Cheney cursors.
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
// the young targets (age advanced in the copy's header), everyone else — and
// any survivor the full young targets cannot hold — is promoted into the
// old targets. A young target that is still a reservation gets its memory
// here, as Begin's targets do. The run then goes through the ordinary Slot /
// EvacuateRoots / Drain entry points, which route by age until the next
// Begin.
// threshold should be >= 2: threshold 1 is wholesale promotion, which
// collectors run through plain Begin (the adaptive harness may still drive
// threshold 1 through here to keep its survival counters flowing; the copy
// order and images are identical either way, since every survivor takes
// the old-target reserve path).
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
		y.back()
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
// hdr, the header forward has loaded from s[off], incremented, and compared
// against the threshold to pick the survivor shadow or the promotion targets
// for the n-word object. A retained survivor's reservation is returned; a
// promoted one returns a nil space, and forward reserves it in the
// promotion targets as it does a wholesale copy. The header the copy is to
// carry — the advanced age for a retained survivor, age 0 for a promoted
// one — is written back to s[off], which forward copies from and then
// overwrites with the forwarding pointer: the age travels in the copy and
// costs the wholesale path nothing.
func (e *Evacuator) reserveByAge(s *Space, off int, hdr Word, n int) (*Space, int) {
	t := e.ten
	age := HeaderAge(hdr)
	newAge := min(age+1, MaxObjectAge)
	t.survByAge[ageClass(age)] += uint64(n)
	if newAge < t.threshold {
		for _, y := range t.young {
			if toOff, ok := y.Bump(n); ok {
				s.Mem[off] = WithHeaderAge(hdr, newAge)
				e.WordsRetained += uint64(n)
				t.retainedByAge[ageClass(newAge)] += uint64(n)
				return y, toOff
			}
		}
	}
	// At or past the threshold — or the survivor shadow is full, in which
	// case the survivor is promoted prematurely (the standard
	// overflow-tenuring safety valve).
	s.Mem[off] = WithHeaderAge(hdr, 0)
	e.WordsPromoted += uint64(n)
	return nil, 0
}

// ageClass pools ages beyond the resolved classes into the last one.
func ageClass(age int) int {
	if age >= TenureAgeClasses {
		return TenureAgeClasses - 1
	}
	return age
}
