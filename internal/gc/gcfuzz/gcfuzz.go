// Package gcfuzz interprets a fuzzer-mutated byte string as a deterministic
// mutator workload and runs it against every collector in the repository,
// checking three properties after every collection and at the end of the
// program:
//
//  1. The deep heap-invariant catalog holds (heap.Verify, under each
//     collector's declared VerifySpec).
//  2. Every rooted structure is identical to its native Go shadow
//     (the gctest shadow model).
//  3. The mutator-side statistics are identical across collectors: the
//     mutator alone decides what is allocated, so any divergence means a
//     collector corrupted the workload's control flow.
//
// The byte program has no framing: every byte feeds the same cursor. The
// first byte of each step selects an operation (mod numProgOps); operations
// then consume as many further bytes as they need for operands, via the
// gctest.Source interface. An exhausted program reads zeroes for operands
// and ends the step loop. This "everything is valid" encoding is what makes
// coverage-guided mutation effective: any byte string is a program, and
// small mutations make small behavioral changes.
package gcfuzz

import (
	"fmt"

	"rdgc/internal/gc/collectors"
	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
)

// MaxProgram bounds the bytes interpreted from one program. Longer inputs
// are truncated rather than rejected, so the fuzzer can grow inputs freely;
// the bound keeps worst-case live data within every collector's fixed-size
// configuration.
const MaxProgram = 4096

// numProgOps is the dispatch modulus: gctest's mutator ops plus the
// harness's own collection and verification ops.
const (
	opCollect     = gctest.NumOps     // force a (major) collection
	opVerify      = gctest.NumOps + 1 // verify invariants mid-mutation
	opFullCollect = gctest.NumOps + 2 // full collection where supported
	opNop         = gctest.NumOps + 3
	numProgOps    = gctest.NumOps + 4
)

// byteSource feeds a program's bytes to the mutator as a gctest.Source.
// Reads past the end return zero and mark the source exhausted.
type byteSource struct {
	data []byte
	pos  int
}

func (b *byteSource) next() byte {
	if b.pos >= len(b.data) {
		b.pos++ // keep moving so done() holds even for operand reads
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return v
}

func (b *byteSource) done() bool { return b.pos >= len(b.data) }

// Intn implements gctest.Source. One byte covers the small bounds the
// mutator uses; large bounds (root-table indices once the table passes 256
// entries) take a second byte.
func (b *byteSource) Intn(n int) int {
	if n <= 0 {
		panic("gcfuzz: Intn bound must be positive")
	}
	v := int(b.next())
	if n > 256 {
		v = v<<8 | int(b.next())
	}
	return v % n
}

// Int63n implements gctest.Source with two bytes of range.
func (b *byteSource) Int63n(n int64) int64 {
	if n <= 0 {
		panic("gcfuzz: Int63n bound must be positive")
	}
	v := int64(b.next())<<8 | int64(b.next())
	return v % n
}

// NamedCollector is collectors.Named, kept for the benchmark module.
type NamedCollector = collectors.Named

// Collectors returns collectors.Fixed, the grid the fuzz harness drives.
func Collectors() []NamedCollector { return collectors.Fixed() }

// CollectorsSized is collectors.Grid, kept for the benchmark module.
func CollectorsSized(total int) []NamedCollector { return collectors.Grid(total) }

// fullCollector is the optional whole-heap collection the non-predictive
// collectors expose.
type fullCollector interface{ FullCollect() }

// Run interprets prog against a fresh heap built under cfg and managed by
// mk's collector, and returns the mutator statistics plus the first property
// violation found. census turns on per-object birth stamps, doubling as a
// check that the hidden census word never confuses a collector. No
// configuration may be visible to the properties checked here: incremental
// collection (the shadow-model comparison and the final whole-heap Check
// hold with collection interleaved into the mutator at slice granularity)
// and tenuring both leave them as they are.
//
// When cfg tenures or adapts and the collector implements heap.Tenurer, the
// gctest age oracle is attached: every retained object's header age must
// match a shadow count kept from the heap's identity table throughout the
// run. The oracle only reads that table, so it runs beside whatever wrap
// attaches.
//
// When wrap is non-nil, the freshly constructed collector is passed through
// it and the returned wrapper receives the program's collect operations
// (allocations still flow through the heap's installed allocator). The trace
// recorder hooks in here — cmd/gcfuzz -emit-trace exports a byte program as a
// trace — without this package importing the trace codec.
func Run(prog []byte, mk func(h *heap.Heap) heap.Collector, census bool, cfg heap.Config, wrap func(h *heap.Heap, c heap.Collector) heap.Collector) (heap.Stats, error) {
	if len(prog) > MaxProgram {
		prog = prog[:MaxProgram]
	}
	opts := []heap.Option{heap.WithConfig(cfg)}
	if census {
		opts = append(opts, heap.WithCensus())
	}
	h := heap.New(opts...)
	c := mk(h)
	drive := c
	if wrap != nil {
		drive = wrap(h, c)
	}

	// Tenured runs carry the age oracle: the collector's header ages are
	// held to an identity-table shadow count for the whole program.
	var oracle *gctest.AgeOracle
	if ten, ok := c.(heap.Tenurer); ok && (cfg.Tenure > 1 || cfg.Adaptive) {
		oracle = gctest.InstallAgeOracle(h, ten)
	}

	// The after-GC hook sees every collection, including those triggered by
	// allocation inside a mutator op; only the first violation is kept.
	var gcErr error
	h.SetAfterGC(func() {
		if oracle != nil {
			oracle.Collected()
		}
		if gcErr == nil {
			gcErr = heap.VerifyCollector(h, c)
		}
		if gcErr == nil && oracle != nil {
			gcErr = oracle.Check()
		}
	})

	src := &byteSource{data: prog}
	m := gctest.NewMutator(h, src)
	for step := 0; !src.done() && gcErr == nil; step++ {
		switch k := src.Intn(numProgOps); k {
		case opCollect:
			drive.Collect()
		case opVerify:
			// Mid-mutation verification is the only point where rules about
			// pointers into a nursery can bite: nurseries are empty at every
			// after-collection hook.
			if err := heap.VerifyCollector(h, c); err != nil {
				return h.Stats, fmt.Errorf("step %d: %w", step, err)
			}
			if err := m.Verify(); err != nil {
				return h.Stats, fmt.Errorf("step %d: %w", step, err)
			}
		case opFullCollect:
			if fc, ok := drive.(fullCollector); ok {
				fc.FullCollect()
			} else {
				drive.Collect()
			}
		case opNop:
		default:
			m.Op(k)
		}
		if gcErr != nil {
			return h.Stats, fmt.Errorf("step %d: %w", step, gcErr)
		}
	}

	drive.Collect()
	if gcErr != nil {
		return h.Stats, gcErr
	}
	if err := heap.Check(h); err != nil {
		return h.Stats, err
	}
	if err := heap.VerifyCollector(h, c); err != nil {
		return h.Stats, err
	}
	if err := m.Verify(); err != nil {
		return h.Stats, err
	}
	if oracle != nil {
		if err := oracle.Check(); err != nil {
			return h.Stats, err
		}
	}
	return h.Stats, nil
}

// RunAll runs prog against every collector from Collectors under cfg and
// checks that each one's mutator statistics equal those of a run under the
// zero Config: the mutator alone decides what is allocated, so they must
// agree across collectors, between incremental and
// stop-the-world collection, and between a tenuring policy and wholesale
// promotion. It returns the first violation, naming the collector that
// produced it.
func RunAll(prog []byte, census bool, cfg heap.Config) error {
	ref := Collectors()[0]
	base, err := Run(prog, ref.New, census, heap.Config{}, nil)
	if err != nil {
		return fmt.Errorf("%s (zero Config): %w", ref.Name, err)
	}
	for _, nc := range Collectors() {
		stats, err := Run(prog, nc.New, census, cfg, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", nc.Name, err)
		}
		if stats != base {
			return fmt.Errorf("%s: mutator stats diverged: %+v, %s under the zero Config got %+v",
				nc.Name, stats, ref.Name, base)
		}
	}
	return nil
}

// Mode is one configuration a program is replayed under.
type Mode struct {
	Name   string
	Config heap.Config
}

// Modes is the mode matrix: the configurations the fuzz target, the
// seed-corpus test, cmd/gcfuzz and the conformance suite run a program
// under. The first row is base; each of the others turns one knob from it:
// incremental collection, a fixed promotion threshold, the adaptive
// controller, and incremental collection at a 64-word mark slice, so slices
// and lazy sweeps interleave as finely as they can. The threshold comes from
// the program's bytes, so the fuzzer explores it (including never-promote),
// unless base already pins one. Rows that come out equal to an earlier one
// are dropped.
func Modes(base heap.Config, prog []byte) []Mode {
	at := func(i int) byte {
		if i < len(prog) {
			return prog[i]
		}
		return 0
	}
	incr, ten, adapt, slice := base, base, base, base
	incr.Incremental = true
	if ten.Tenure <= 1 {
		ten.Tenure = [5]int{2, 3, 6, 15, heap.TenureNever}[at(2)%5]
	}
	ten.Adaptive = false
	adapt.Adaptive = true
	slice.Incremental, slice.SliceBudget = true, 64
	var modes []Mode
next:
	for _, m := range []Mode{{"default", base}, {"incremental", incr}, {"tenured", ten}, {"adaptive", adapt}, {"incremental-slice64", slice}} {
		for _, seen := range modes {
			if seen.Config == m.Config {
				continue next
			}
		}
		modes = append(modes, m)
	}
	return modes
}

// Minimize shrinks a failing program while fails keeps reporting true. It
// first deletes chunks (halving the chunk size down to one byte), then
// zeroes individual bytes, so replayed failures stay as small and as plain
// as possible. fails must be deterministic.
func Minimize(prog []byte, fails func([]byte) bool) []byte {
	cur := append([]byte(nil), prog...)
	if !fails(cur) {
		return cur
	}
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur); {
			cand := append(append([]byte(nil), cur[:start]...), cur[start+chunk:]...)
			if fails(cand) {
				cur = cand
				// Do not advance: the next chunk shifted into this window.
			} else {
				start += chunk
			}
		}
	}
	for i := range cur {
		if cur[i] == 0 {
			continue
		}
		old := cur[i]
		cur[i] = 0
		if !fails(cur) {
			cur[i] = old
		}
	}
	return cur
}
