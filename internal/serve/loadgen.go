package serve

import (
	"cmp"
	"fmt"
	"slices"
)

// Simulated time is measured in ticks; the words-per-tick clock
// (Config.WordsPerTick) converts between a request's words of work —
// mutator allocation plus the GC pauses it waited for — and the latency
// the load generator's open-loop arrival times are expressed in.

// Arrival process names.
const (
	ArrivalPoisson = "poisson"
	ArrivalMMPP    = "mmpp"
)

// LoadConfig configures the deterministic open-loop load generator. All
// times are in ticks; rates are expressed as mean gaps. The zero value of
// any field selects the default noted on it.
type LoadConfig struct {
	// Seed drives every draw the generator (and the request handlers)
	// make. Identical seed and config produce a byte-identical schedule.
	Seed uint64

	// Arrival selects the session-arrival process: ArrivalPoisson
	// (default) or ArrivalMMPP, a two-state Markov-modulated Poisson
	// process whose burst state multiplies the arrival rate by BurstRate.
	Arrival string

	// HorizonTicks bounds request arrivals: sessions start and issue
	// requests only before the horizon (default 100000).
	HorizonTicks uint64

	// SessionEvery is the mean gap between session arrivals across the
	// whole stream (default 600). Drivers offering a fixed per-shard load
	// divide a per-shard gap by the shard count.
	SessionEvery float64

	// RequestEvery is the mean gap between requests within a session
	// (default 60).
	RequestEvery float64

	// SessionMinTicks and SessionAlpha parameterize the Pareto session
	// lifetime: minimum xm (default 1500) and shape alpha (default 1.6 —
	// finite mean, infinite variance: a genuinely heavy tail).
	SessionMinTicks float64
	SessionAlpha    float64

	// RequestWords is the mean words a request handler allocates
	// (exponentially distributed per request, minimum one object's worth;
	// default 400).
	RequestWords int

	// RetainWords is the words of session state each request links into
	// its session's ring buffer (0 means the default 128; a negative value
	// disables retention).
	RetainWords int

	// SessionSlots is the session ring-buffer size: how many requests'
	// retained state a session keeps live at once (default 12).
	SessionSlots int

	// Profiles names the per-request allocation profiles sessions are
	// assigned round-robin: registry program names (quick suite first,
	// then standard) or "trace:PATH" for a recorded trace. Default:
	// nboyer1, nucleic2, 2dyninfer.
	Profiles []string

	// MMPP parameters (ignored under ArrivalPoisson): the burst state
	// multiplies the session-arrival rate by BurstRate (default 8); mean
	// quiet dwell BurstEvery (default 20000) and mean burst dwell
	// BurstTicks (default 2500).
	BurstRate  float64
	BurstEvery float64
	BurstTicks float64
}

// withDefaults fills zero fields; every consumer normalizes through here so
// the report reflects the effective configuration.
func (c LoadConfig) withDefaults() LoadConfig {
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.HorizonTicks == 0 {
		c.HorizonTicks = 100000
	}
	if c.SessionEvery == 0 {
		c.SessionEvery = 600
	}
	if c.RequestEvery == 0 {
		c.RequestEvery = 60
	}
	if c.SessionMinTicks == 0 {
		c.SessionMinTicks = 1500
	}
	if c.SessionAlpha == 0 {
		c.SessionAlpha = 1.6
	}
	if c.RequestWords == 0 {
		c.RequestWords = 400
	}
	if c.RetainWords == 0 {
		c.RetainWords = 128
	}
	if c.SessionSlots == 0 {
		c.SessionSlots = 12
	}
	if len(c.Profiles) == 0 {
		c.Profiles = []string{"nboyer1", "nucleic2", "2dyninfer"}
	}
	if c.BurstRate == 0 {
		c.BurstRate = 8
	}
	if c.BurstEvery == 0 {
		c.BurstEvery = 20000
	}
	if c.BurstTicks == 0 {
		c.BurstTicks = 2500
	}
	return c
}

func (c LoadConfig) validate() error {
	if c.Arrival != ArrivalPoisson && c.Arrival != ArrivalMMPP {
		return fmt.Errorf("serve: unknown arrival process %q (have %q, %q)",
			c.Arrival, ArrivalPoisson, ArrivalMMPP)
	}
	if c.SessionAlpha <= 1 {
		return fmt.Errorf("serve: session alpha %g must exceed 1 (finite mean lifetime)", c.SessionAlpha)
	}
	if c.SessionSlots < 1 {
		return fmt.Errorf("serve: session slots %d must be positive", c.SessionSlots)
	}
	return nil
}

// SessionPlan is one session of the schedule: a tenant with shard affinity
// whose live state spans its requests.
type SessionPlan struct {
	ID      uint64
	Arrival uint64 // tick of the first request
	End     uint64 // tick after which the session's state is dropped
	Profile int    // index into the resolved profile list
	// Requests counts the session's requests; request arrivals past the
	// horizon are not generated, so long-lived sessions simply idle once
	// the load stops.
	Requests int
}

// Request is one request of the open-loop schedule.
type Request struct {
	Session uint64
	Seq     int    // request index within its session
	Arrival uint64 // tick
	Words   uint64 // handler allocation budget in words
	Profile int    // index into the resolved profile list
}

// Schedule is the full deterministic load plan: sessions and their
// requests, globally ordered by (Arrival, Session, Seq). The schedule is
// independent of the shard count; ShardRequests carves the per-shard
// streams out of it.
type Schedule struct {
	Cfg      LoadConfig
	Sessions []SessionPlan
	Requests []Request
}

// arrivals produces the session start ticks of the configured process.
type arrivals struct {
	cfg        LoadConfig
	r          *rng
	t          float64
	inBurst    bool
	nextSwitch float64
}

func newArrivals(cfg LoadConfig, r *rng) *arrivals {
	a := &arrivals{cfg: cfg, r: r}
	if cfg.Arrival == ArrivalMMPP {
		a.nextSwitch = r.Exp(cfg.BurstEvery)
	}
	return a
}

// next returns the next session start tick. The MMPP state toggles at
// exponentially distributed dwell boundaries; because the in-state gap
// distribution is memoryless, redrawing the gap after crossing a switch
// boundary is exact, not an approximation.
func (a *arrivals) next() uint64 {
	for {
		mean := a.cfg.SessionEvery
		if a.inBurst {
			mean /= a.cfg.BurstRate
		}
		gap := a.r.Exp(mean)
		if a.cfg.Arrival == ArrivalMMPP && a.t+gap >= a.nextSwitch {
			a.t = a.nextSwitch
			a.inBurst = !a.inBurst
			if a.inBurst {
				a.nextSwitch = a.t + a.r.Exp(a.cfg.BurstTicks)
			} else {
				a.nextSwitch = a.t + a.r.Exp(a.cfg.BurstEvery)
			}
			continue
		}
		a.t += gap
		return uint64(a.t)
	}
}

// Generate builds the schedule for cfg. The arrival stream draws from one
// seeded generator; each session's content (lifetime, request gaps, request
// sizes) draws from its own stream seeded by (Seed, ID), so a session's
// requests are a pure function of its identity — the property that makes
// per-shard streams exact sub-sequences of the global one.
func Generate(cfg LoadConfig) (*Schedule, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Schedule{Cfg: cfg}
	arr := newArrivals(cfg, newRNG(mix(cfg.Seed, 0xa11c)))
	for t := arr.next(); t < cfg.HorizonTicks; t = arr.next() {
		id := uint64(len(s.Sessions))
		sr := newRNG(mix(cfg.Seed, 0x5e55, id))
		life := sr.Pareto(cfg.SessionMinTicks, cfg.SessionAlpha)
		plan := SessionPlan{
			ID:      id,
			Arrival: t,
			End:     t + uint64(life),
			Profile: int(id % uint64(len(cfg.Profiles))),
		}
		reqT := t
		for reqT <= plan.End && reqT < cfg.HorizonTicks {
			words := uint64(1 + int(sr.Exp(float64(cfg.RequestWords))))
			s.Requests = append(s.Requests, Request{
				Session: id,
				Seq:     plan.Requests,
				Arrival: reqT,
				Words:   words,
				Profile: plan.Profile,
			})
			plan.Requests++
			gap := uint64(sr.Exp(cfg.RequestEvery))
			if gap < 1 {
				gap = 1
			}
			reqT += gap
		}
		s.Sessions = append(s.Sessions, plan)
	}
	// (Arrival, Session, Seq) names one request, so an unstable sort gives
	// the one order a stable sort would.
	slices.SortFunc(s.Requests, func(a, b Request) int {
		if c := cmp.Compare(a.Arrival, b.Arrival); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Session, b.Session); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return s, nil
}

// ShardOf is the deterministic splitter: sessions have shard affinity, so
// a session's whole request stream lands on one shard and the per-shard
// streams partition the global one. It is a pure function of the session
// id and the shard count — nothing about the schedule moves when the
// cluster is resized.
func ShardOf(session uint64, shards int) int {
	return int(session % uint64(shards))
}

// ShardRequests returns shard i's request stream under the given shard
// count, preserving global order.
func (s *Schedule) ShardRequests(i, shards int) []Request {
	var out []Request
	for _, r := range s.Requests {
		if ShardOf(r.Session, shards) == i {
			out = append(out, r)
		}
	}
	return out
}
