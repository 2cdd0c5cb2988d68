package heap

import (
	"sync"
	"sync/atomic"
)

// The shared work-distribution machinery of the parallel drains in
// parmark.go and parevac.go, which run when Config.Workers >= 2.

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
