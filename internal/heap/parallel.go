package heap

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
)

// Parallel tracing configuration and the shared work-distribution machinery
// used by the parallel drains in parmark.go and parevac.go.
//
// Parallelism is an opt-in, per-heap engine configuration: a heap with
// GCWorkers() <= 1 (0 is the default) drains every trace on the calling
// goroutine through the fused sequential loops. Setting N >= 2 routes
// Marker.Drain, Evacuator.Drain and Sweeper.Sweep through the parallel
// engines with N worker goroutines. The worker count selects between the
// two loops of each engine because they differ in protocol, not in policy:
// plain bitmap and header accesses on one goroutine, atomic claims on many.

// EnvGCWorkers is the environment variable the drivers consult when their
// -gcworkers flag is left at its default: a positive integer enables the
// parallel tracing engines with that many workers per heap.
const EnvGCWorkers = "RDGC_GC_WORKERS"

// defaultGCWorkers seeds every heap created by New. It is package-level
// (and atomic) because drivers configure it once before fanning cells out
// across runner goroutines, each of which builds its own Heap.
var defaultGCWorkers atomic.Int32

// SetDefaultGCWorkers sets the tracing-worker count inherited by heaps
// subsequently created with New. Values below zero are treated as zero;
// N <= 1 selects the sequential engines.
func SetDefaultGCWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultGCWorkers.Store(int32(n))
}

// DefaultGCWorkers returns the worker count New currently hands to fresh
// heaps.
func DefaultGCWorkers() int { return int(defaultGCWorkers.Load()) }

// GCWorkersFromEnv returns the worker count requested by RDGC_GC_WORKERS,
// or 0 when the variable is unset or not a positive integer.
func GCWorkersFromEnv() int {
	if s := os.Getenv(EnvGCWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// ResolveGCWorkers implements the drivers' flag/env precedence: a flag value
// >= 0 is explicit and wins (N <= 1 = sequential engines), while the default
// sentinel -1 defers to RDGC_GC_WORKERS.
func ResolveGCWorkers(flagValue int) int {
	if flagValue >= 0 {
		return flagValue
	}
	return GCWorkersFromEnv()
}

// SetGCWorkers configures this heap's tracing-worker count: N <= 1 selects
// the sequential engines, N >= 2 the parallel engines with N workers.
func (h *Heap) SetGCWorkers(n int) {
	if n < 0 {
		n = 0
	}
	h.gcWorkers = n
}

// GCWorkers reports the heap's configured tracing-worker count.
func (h *Heap) GCWorkers() int { return h.gcWorkers }

// EnvGCLAB is the environment variable the drivers consult when their
// -gclab flag is left at its default: "1" (or any truthy strconv.ParseBool
// value) opts the parallel evacuator into per-worker allocation buffers.
const EnvGCLAB = "RDGC_GC_LAB"

// defaultGCLAB seeds every heap created by New, mirroring defaultGCWorkers.
var defaultGCLAB atomic.Bool

// SetDefaultGCLAB sets the allocation-buffer mode inherited by heaps
// subsequently created with New.
func SetDefaultGCLAB(on bool) { defaultGCLAB.Store(on) }

// DefaultGCLAB returns the allocation-buffer mode New currently hands to
// fresh heaps.
func DefaultGCLAB() bool { return defaultGCLAB.Load() }

// GCLABFromEnv reports whether RDGC_GC_LAB requests allocation buffers.
func GCLABFromEnv() bool {
	if s := os.Getenv(EnvGCLAB); s != "" {
		if on, err := strconv.ParseBool(s); err == nil {
			return on
		}
	}
	return false
}

// SetGCLAB opts this heap's parallel evacuator into (or out of) per-worker
// block-sized allocation buffers. The setting is inert below 2 workers,
// where the sequential engine copies.
func (h *Heap) SetGCLAB(on bool) { h.gcLAB = on }

// GCLAB reports whether the parallel evacuator uses per-worker allocation
// buffers.
func (h *Heap) GCLAB() bool { return h.gcLAB }

// Atomic accessors for heap words. Word's underlying type is uint64, so a
// *Word converts directly to *uint64 for sync/atomic. During a parallel
// drain every access to a contended header word goes through these; payload
// words and to-space copies are only ever touched by one worker (or
// published across the queue's mutex) and stay plain loads and stores.

func loadWord(p *Word) Word     { return Word(atomic.LoadUint64((*uint64)(p))) }
func storeWord(p *Word, w Word) { atomic.StoreUint64((*uint64)(p), uint64(w)) }
func casWord(p *Word, old, new Word) bool {
	return atomic.CompareAndSwapUint64((*uint64)(p), uint64(old), uint64(new))
}

// Work-distribution tuning. Workers drain their local stacks and spill the
// older half into the shared queue when a stack grows past parSpillHigh;
// idle workers refill from the queue parTakeBatch words at a time.
const (
	parSpillHigh = 256
	parTakeBatch = 128
)

// parQueue is the shared overflow/stealing queue behind a parallel drain:
// a flat word buffer under a mutex, plus idle-count termination detection.
// A worker only calls take with an empty local stack, so when every worker
// is blocked in take with an empty buffer no gray object exists anywhere
// and the drain is complete.
type parQueue struct {
	mu   sync.Mutex
	cond sync.Cond
	buf  []Word
	idle int
	n    int // worker count this drain
	done bool
}

// reset re-arms the queue for a drain with n workers, keeping the buffer's
// capacity.
func (q *parQueue) reset(n int) {
	if q.cond.L == nil {
		q.cond.L = &q.mu
	}
	q.buf = q.buf[:0]
	q.idle = 0
	q.n = n
	q.done = false
}

// put donates ws to the queue. The words are copied, so the donor is free
// to keep mutating its local stack.
func (q *parQueue) put(ws []Word) {
	q.mu.Lock()
	q.buf = append(q.buf, ws...)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// take appends up to max queued words to dst, blocking until work arrives.
// It returns false when the drain has terminated: every worker (including
// the caller) is idle and the queue is empty.
func (q *parQueue) take(dst []Word, max int) ([]Word, bool) {
	q.mu.Lock()
	for {
		if n := len(q.buf); n > 0 {
			if n > max {
				n = max
			}
			dst = append(dst, q.buf[len(q.buf)-n:]...)
			q.buf = q.buf[:len(q.buf)-n]
			q.mu.Unlock()
			return dst, true
		}
		if q.done {
			q.mu.Unlock()
			return dst, false
		}
		q.idle++
		if q.idle == q.n {
			q.done = true
			q.mu.Unlock()
			q.cond.Broadcast()
			return dst, false
		}
		q.cond.Wait()
		q.idle--
	}
}
