package serve

import (
	"fmt"
	"slices"

	"rdgc/internal/bench"
	"rdgc/internal/gc/collectors"
	"rdgc/internal/heap"
)

// ShardResult is one shard's measurement. Every field is fixed-size, so the
// struct is comparable with == — the conformance tests pin shard results
// bit-identical across runs and runner worker counts. The json tags spell
// the field names (and heap.GCStats's and heap.PauseHist's do the same), so
// renaming a field in Go does not rename a key of gcserve -json.
type ShardResult struct {
	Shard      int    `json:"Shard"`
	Sessions   uint64 `json:"Sessions"` // sessions that issued at least one request here
	Requests   uint64 `json:"Requests"`
	WordsAlloc uint64 `json:"WordsAlloc"` // mutator words allocated by the shard's handlers
	WordsPause uint64 `json:"WordsPause"` // collector words the shard's requests waited for
	FinalTick  uint64 `json:"FinalTick"`  // completion tick of the last request
	// Footprint is heap.FootprintWords at the end of the run: every space's
	// reserved words, whether or not the space has been given memory yet.
	Footprint int            `json:"Footprint"`
	Latency   heap.PauseHist `json:"Latency"`
	GC        heap.GCStats   `json:"GC"`
}

// session is the shard-local state of one live tenant: the root slot that
// keeps its ring vector alive, and its expiry tick.
type session struct {
	slot int // index into the shard's root-slot pool
	end  uint64
}

// shard is the per-shard simulation state: a single-threaded heap, the
// FIFO service clock, and the live-session table.
type shard struct {
	h         *heap.Heap
	col       heap.Collector
	cfg       Config
	profiles  []*Profile
	clock     uint64 // tick at which the server becomes idle
	slotRefs  []heap.Ref
	freeSlots []int
	live      map[uint64]session
	nextExp   uint64 // earliest live-session expiry, 0 = none
	res       ShardResult
}

// runShard simulates one shard end to end: its slice of the global request
// stream against its own heap, with GC pauses folded into request service
// times. It is the unit the runner parallelizes; everything it touches is
// shard-local but arenas, from which its heap takes cleared memory and to
// which it releases the heap once the result is read.
func runShard(cfg Config, nc collectors.Named, idx int, reqs []Request, profiles []*Profile, arenas *heap.Arenas) ShardResult {
	s := newShard(cfg, nc, idx, profiles, heap.WithArenas(arenas))
	res := s.run(reqs)
	s.h.Release()
	return res
}

// newShard builds shard idx: its heap under cfg's modes and opts
// (runShard's recycler), and nc's collector on it.
func newShard(cfg Config, nc collectors.Named, idx int, profiles []*Profile, opts ...heap.Option) *shard {
	h := heap.New(append(opts, heap.WithConfig(heap.Config{
		Incremental: cfg.Incremental,
		SliceBudget: cfg.SliceBudget,
		Tenure:      cfg.Tenure,
		Adaptive:    cfg.Adaptive,
	}))...)
	return &shard{
		h:        h,
		col:      nc.New(h),
		cfg:      cfg,
		profiles: profiles,
		live:     make(map[uint64]session),
		res:      ShardResult{Shard: idx},
	}
}

// run serves reqs, the shard's slice of the request stream, in order and
// returns the shard's measurement.
func (s *shard) run(reqs []Request) ShardResult {
	h := s.h
	root := h.Scope()
	defer root.Close()
	for _, req := range reqs {
		s.serve(req)
	}
	s.res.Footprint = h.FootprintWords()
	s.res.GC = *s.col.GCStats()
	s.res.WordsAlloc = h.Stats.WordsAllocated
	return s.res
}

// serve processes one request through the shard's FIFO queue: expire dead
// sessions, run the handler, convert the words of work — allocation plus
// any GC pause charged meanwhile — into ticks on the service clock.
func (s *shard) serve(req Request) {
	s.expire(req.Arrival)
	start := req.Arrival
	if s.clock > start {
		start = s.clock
	}
	// Every allocation happens while some request is in flight, so the
	// pause words recorded meanwhile are the collections (or incremental
	// slices) that request triggered.
	allocBefore := s.h.Stats.WordsAllocated
	pauseBefore := s.col.GCStats().Pauses.TotalWords
	s.handle(req)
	pausew := s.col.GCStats().Pauses.TotalWords - pauseBefore
	work := (s.h.Stats.WordsAllocated - allocBefore) + pausew
	ticks := (work + uint64(s.cfg.WordsPerTick) - 1) / uint64(s.cfg.WordsPerTick)
	s.clock = start + ticks
	s.res.WordsPause += pausew
	s.res.Requests++
	s.res.FinalTick = s.clock
	s.res.Latency.Record(s.clock - req.Arrival)
}

// expire drops the state of every session whose lifetime ended before now.
// Expiry is keyed to arrival ticks (not the queue-delayed service clock),
// so it is a pure function of the schedule: a session never outlives its
// plan because the shard fell behind, and never expires before its own
// last planned request.
func (s *shard) expire(now uint64) {
	if s.nextExp == 0 || now < s.nextExp {
		return
	}
	s.nextExp = 0
	var dead []uint64
	for id, sess := range s.live {
		if sess.end < now {
			dead = append(dead, id)
			continue
		}
		if s.nextExp == 0 || sess.end < s.nextExp {
			s.nextExp = sess.end
		}
	}
	// Map iteration order is randomized, so free the batch in sorted session
	// order: the slot freelist — and with it every future slot assignment,
	// root layout, and trace order — stays a pure function of the schedule.
	slices.Sort(dead)
	for _, id := range dead {
		// Clearing the root slot is the only unlink: the ring vector and
		// everything it retains becomes garbage for the next collection to
		// prove dead.
		s.h.Set(s.slotRefs[s.live[id].slot], heap.NullWord)
		s.freeSlots = append(s.freeSlots, s.live[id].slot)
		delete(s.live, id)
	}
}

// admit sets up a session's ring vector on its first request and returns
// the session. Root-slot bookkeeping happens outside any handler scope so
// the slot pool stays in the shard's base scope.
func (s *shard) admit(req Request) session {
	if sess, ok := s.live[req.Session]; ok {
		return sess
	}
	var slot int
	if n := len(s.freeSlots); n > 0 {
		slot = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		slot = len(s.slotRefs)
		s.slotRefs = append(s.slotRefs, s.h.RefOf(heap.NullWord))
	}
	sc := s.h.Scope()
	ring := s.h.MakeVector(s.cfg.Load.SessionSlots, s.h.Null())
	s.h.Set(s.slotRefs[slot], s.h.Get(ring))
	sc.Close()
	end := req.Arrival + 1 // degenerate plans still cover their one request
	if sessEnd := s.sessionEnd(req); sessEnd > end {
		end = sessEnd
	}
	sess := session{slot: slot, end: end}
	s.live[req.Session] = sess
	if s.nextExp == 0 || end < s.nextExp {
		s.nextExp = end
	}
	s.res.Sessions++
	return sess
}

// sessionEnd recomputes the session's planned end tick from its identity —
// the same first draw Generate made — so shards need only the request
// stream, not the session table.
func (s *shard) sessionEnd(req Request) uint64 {
	sr := newRNG(mix(s.cfg.Load.Seed, 0x5e55, req.Session))
	life := sr.Pareto(s.cfg.Load.SessionMinTicks, s.cfg.Load.SessionAlpha)
	return req.Arrival - s.arrivalOffset(req) + uint64(life)
}

// arrivalOffset is how far into its session this request arrives. Only a
// Seq-0 request ever reaches sessionEnd, so the offset is zero; the method
// exists to keep the invariant in one checked place.
func (s *shard) arrivalOffset(req Request) uint64 {
	if req.Seq != 0 {
		panic(fmt.Sprintf("serve: session %d admitted on request %d", req.Session, req.Seq))
	}
	return 0
}

// handle runs one request's handler: link RetainWords of fresh state into
// the session ring (displacing the slot's previous contents), then allocate
// scratch objects sampled from the session's profile until the request's
// word budget is spent. All scratch dies with the handler scope; the ring
// survives into future requests and collections.
func (s *shard) handle(req Request) {
	sess := s.admit(req)
	rr := newRNG(mix(s.cfg.Load.Seed, 0xbeef, req.Session, uint64(req.Seq)))
	h := s.h
	sc := h.Scope()
	defer sc.Close()

	ring := h.Dup(s.slotRefs[sess.slot])
	if retain := s.cfg.Load.RetainWords; retain > 0 {
		// A cons chain costs 3 words per link (header + car + cdr). The
		// VectorSet is an old-to-young store once the ring has survived a
		// collection — the write-barrier traffic multi-tenant retention
		// exists to generate.
		chain := h.Null()
		for built := 0; built < retain; built += 3 {
			chain = h.Cons(h.Fix(int64(req.Seq)), chain)
		}
		h.VectorSet(ring, req.Seq%s.cfg.Load.SessionSlots, chain)
	}

	profile := s.profiles[req.Profile]
	prev := h.Null()
	for spent := uint64(0); spent < req.Words; {
		cls := profile.pick(rr)
		prev = s.allocClass(cls, prev)
		spent += cls.CostWords()
	}
}

// allocClass allocates one object of the sampled class, linking pointer
// classes to the previous scratch object so the young heap holds real
// pointer chains, not isolated leaves. Symbols are interned (allocated once
// per name, rooted globally), so re-enacting a symbol allocation would leak
// a global per request; a vector of the same size stands in: same words,
// same scanned-payload shape.
func (s *shard) allocClass(cls bench.AllocClass, prev heap.Ref) heap.Ref {
	h := s.h
	switch cls.Type {
	case heap.TPair:
		return h.Cons(prev, h.Null())
	case heap.TFlonum:
		return h.Flonum(float64(cls.PayloadWords))
	case heap.TBytevec:
		return h.Bytevector(8 * cls.PayloadWords)
	case heap.TBox:
		return h.Box(prev)
	default: // TVector, and TSymbol's stand-in
		return h.MakeVector(cls.PayloadWords, prev)
	}
}
