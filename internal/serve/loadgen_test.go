package serve

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// TestGenerateDeterministic pins the schedule contract: identical seed and
// config yield an identical schedule, a different seed a different one.
func TestGenerateDeterministic(t *testing.T) {
	cfg := LoadConfig{Seed: 7, HorizonTicks: 30000}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and config produced different schedules")
	}
	c, err := Generate(LoadConfig{Seed: 8, HorizonTicks: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Requests, c.Requests) {
		t.Fatal("different seeds produced identical request streams")
	}
	if len(a.Sessions) == 0 || len(a.Requests) == 0 {
		t.Fatalf("degenerate schedule: %d sessions, %d requests", len(a.Sessions), len(a.Requests))
	}
}

// TestScheduleShape checks structural invariants: global request order,
// horizon bounds, session bounds, and per-session request numbering.
func TestScheduleShape(t *testing.T) {
	s, err := Generate(LoadConfig{Seed: 3, HorizonTicks: 50000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Cfg
	seqs := make(map[uint64]int)
	for i, r := range s.Requests {
		if i > 0 {
			p := s.Requests[i-1]
			if r.Arrival < p.Arrival ||
				(r.Arrival == p.Arrival && (r.Session < p.Session ||
					(r.Session == p.Session && r.Seq <= p.Seq))) {
				t.Fatalf("requests out of order at %d: %+v then %+v", i, p, r)
			}
		}
		if r.Arrival >= cfg.HorizonTicks {
			t.Fatalf("request past the horizon: %+v", r)
		}
		plan := s.Sessions[r.Session]
		if r.Arrival < plan.Arrival || r.Arrival > plan.End {
			t.Fatalf("request outside its session [%d, %d]: %+v", plan.Arrival, plan.End, r)
		}
		if r.Seq != seqs[r.Session] {
			t.Fatalf("session %d: request seq %d, want %d", r.Session, r.Seq, seqs[r.Session])
		}
		seqs[r.Session]++
	}
	for _, plan := range s.Sessions {
		if seqs[plan.ID] != plan.Requests {
			t.Fatalf("session %d: %d requests in stream, plan says %d",
				plan.ID, seqs[plan.ID], plan.Requests)
		}
		if plan.Requests == 0 {
			t.Fatalf("session %d arrived but issued no requests", plan.ID)
		}
		if plan.End <= plan.Arrival {
			t.Fatalf("session %d has non-positive lifetime: %+v", plan.ID, plan)
		}
	}
}

// TestShardInvariance pins the deterministic-splitter contract: for any
// shard count, the per-shard streams partition the global stream, preserve
// its order, and merging them back reproduces it exactly — so a 1-shard
// run and a K-shard run serve the same requests.
func TestShardInvariance(t *testing.T) {
	s, err := Generate(LoadConfig{Seed: 11, HorizonTicks: 40000})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ShardRequests(0, 1); !reflect.DeepEqual(got, s.Requests) {
		t.Fatal("single-shard stream differs from the global stream")
	}
	for _, shards := range []int{2, 3, 16} {
		var merged []Request
		for i := 0; i < shards; i++ {
			sub := s.ShardRequests(i, shards)
			for j, r := range sub {
				if ShardOf(r.Session, shards) != i {
					t.Fatalf("shards=%d: request %+v on wrong shard %d", shards, r, i)
				}
				if j > 0 && requestLess(r, sub[j-1]) {
					t.Fatalf("shards=%d shard %d: stream out of order at %d", shards, i, j)
				}
			}
			merged = append(merged, sub...)
		}
		sort.SliceStable(merged, func(a, b int) bool { return requestLess(merged[a], merged[b]) })
		if !reflect.DeepEqual(merged, s.Requests) {
			t.Fatalf("shards=%d: merged per-shard streams diverge from the global stream", shards)
		}
	}
}

// TestGenerateOrderIsStableSorts: Generate's unstable sort leaves the
// schedule the stable sort by (Arrival, Session, Seq) leaves, under both
// arrival processes and several seeds: the requests in the order Generate
// draws them (session by session, each in sequence), stably sorted, are the
// schedule, and no two requests share the key.
func TestGenerateOrderIsStableSort(t *testing.T) {
	for _, arrival := range []string{ArrivalPoisson, ArrivalMMPP} {
		for seed := uint64(1); seed <= 5; seed++ {
			s, err := Generate(LoadConfig{Seed: seed, HorizonTicks: 20000, Arrival: arrival})
			if err != nil {
				t.Fatal(err)
			}
			drawn := append([]Request(nil), s.Requests...)
			sort.Slice(drawn, func(a, b int) bool {
				if drawn[a].Session != drawn[b].Session {
					return drawn[a].Session < drawn[b].Session
				}
				return drawn[a].Seq < drawn[b].Seq
			})
			sort.SliceStable(drawn, func(a, b int) bool { return requestLess(drawn[a], drawn[b]) })
			if !reflect.DeepEqual(drawn, s.Requests) {
				t.Errorf("%s seed %d: schedule differs from the stable sort's", arrival, seed)
			}
			for i := 1; i < len(s.Requests); i++ {
				if !requestLess(s.Requests[i-1], s.Requests[i]) {
					t.Fatalf("%s seed %d: requests %d and %d share a key or are out of order", arrival, seed, i-1, i)
				}
			}
			if len(s.Requests) < 100 {
				t.Fatalf("%s seed %d: %d requests, too few to order", arrival, seed, len(s.Requests))
			}
		}
	}
}

func requestLess(a, b Request) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	if a.Session != b.Session {
		return a.Session < b.Session
	}
	return a.Seq < b.Seq
}

// TestSessionLifetimeDistribution checks the empirical session lifetimes
// against the configured Pareto: the median of Pareto(xm, alpha) is
// xm * 2^(1/alpha), a statistic that exists and concentrates even for
// alpha < 2 where the variance is infinite.
func TestSessionLifetimeDistribution(t *testing.T) {
	cfg := LoadConfig{
		Seed:         5,
		HorizonTicks: 4_000_000,
		SessionEvery: 400,
		RequestEvery: 1e12, // one request per session: lifetime draws only
		SessionSlots: 1,
	}
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Sessions)
	if n < 5000 {
		t.Fatalf("too few sessions for a distribution check: %d", n)
	}
	lives := make([]float64, n)
	for i, plan := range s.Sessions {
		life := float64(plan.End - plan.Arrival)
		if life < s.Cfg.SessionMinTicks {
			t.Fatalf("session %d lifetime %g below the Pareto minimum %g",
				plan.ID, life, s.Cfg.SessionMinTicks)
		}
		lives[i] = life
	}
	sort.Float64s(lives)
	median := lives[n/2]
	want := s.Cfg.SessionMinTicks * math.Pow(2, 1/s.Cfg.SessionAlpha)
	if rel := math.Abs(median-want) / want; rel > 0.05 {
		t.Fatalf("lifetime median %g, want %g (±5%%): off by %.1f%%", median, want, 100*rel)
	}
}

// TestRNGDistributions checks the samplers the schedule is built from: the
// exponential mean, and the Pareto mean in the finite-variance regime
// alpha = 2.5 where the sample mean converges fast.
func TestRNGDistributions(t *testing.T) {
	const n = 200_000
	r := newRNG(mix(42, 0xd157))
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(600)
	}
	if mean := sum / n; math.Abs(mean-600)/600 > 0.02 {
		t.Fatalf("Exp(600) sample mean %g, want 600 ±2%%", mean)
	}
	sum = 0
	for i := 0; i < n; i++ {
		sum += r.Pareto(1500, 2.5)
	}
	want := 1500 * 2.5 / 1.5 // xm * alpha / (alpha - 1)
	if mean := sum / n; math.Abs(mean-want)/want > 0.03 {
		t.Fatalf("Pareto(1500, 2.5) sample mean %g, want %g ±3%%", mean, want)
	}
}

// TestMMPPBurstier pins that the two-state arrival process actually
// modulates: the index of dispersion (window-count variance over mean) of
// MMPP session arrivals clearly exceeds a Poisson stream's, which sits
// near 1.
func TestMMPPBurstier(t *testing.T) {
	base := LoadConfig{
		Seed:         9,
		HorizonTicks: 2_000_000,
		SessionEvery: 300,
		RequestEvery: 1e12,
		SessionSlots: 1,
	}
	dispersion := func(arrival string) float64 {
		cfg := base
		cfg.Arrival = arrival
		s, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const window = 10_000
		counts := make([]float64, base.HorizonTicks/window)
		for _, plan := range s.Sessions {
			counts[plan.Arrival/window]++
		}
		var mean float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		var varsum float64
		for _, c := range counts {
			varsum += (c - mean) * (c - mean)
		}
		return varsum / float64(len(counts)-1) / mean
	}
	poisson := dispersion(ArrivalPoisson)
	mmpp := dispersion(ArrivalMMPP)
	if poisson > 1.3 {
		t.Fatalf("Poisson dispersion %g, expected near 1", poisson)
	}
	if mmpp < 2*poisson {
		t.Fatalf("MMPP dispersion %g not clearly burstier than Poisson's %g", mmpp, poisson)
	}
}

// TestLoadConfigValidate pins the error paths.
func TestLoadConfigValidate(t *testing.T) {
	if _, err := Generate(LoadConfig{Arrival: "lognormal"}); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
	if _, err := Generate(LoadConfig{SessionAlpha: 0.9}); err == nil {
		t.Fatal("alpha <= 1 accepted")
	}
	if _, err := Generate(LoadConfig{SessionSlots: -1}); err == nil {
		t.Fatal("negative session slots accepted")
	}
}
