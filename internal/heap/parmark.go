package heap

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
)

// Parallel marking: Marker.Drain dispatches here when the heap is
// configured with GCWorkers >= 2. The roots have already been marked (and
// counted) sequentially by MarkWord, so the engine's mark stack holds the
// initial gray set; workers pop gray objects onto per-worker local stacks,
// claim children by CASing their bit into the side mark bitmap
// (Space.TryMarkAtomic), and balance load through the shared parQueue.
// Headers are never written during a mark, so every header and payload
// access here is a plain load.
//
// Determinism contract: marking is idempotent and each object is claimed by
// exactly one successful bitmap CAS, so the resulting mark set, WordsMarked,
// and ObjectsMarked are bit-identical to the sequential drain for every
// worker count — only the order in which objects are visited differs.

// markWorker is one worker's persistent drain state.
type markWorker struct {
	stack []Word
	words uint64
	objs  int
}

// parMark is the Marker's persistent parallel machinery, created on first
// use and reused across collections.
type parMark struct {
	queue parQueue
	ws    []markWorker
}

// drainParallel distributes the current mark stack over workers (>= 2)
// goroutines and blocks until the trace is complete.
func (m *Marker) drainParallel(workers int) {
	if m.par == nil {
		m.par = &parMark{}
	}
	p := m.par
	for len(p.ws) < workers {
		p.ws = append(p.ws, markWorker{})
	}
	for i := 0; i < workers; i++ {
		p.ws[i].words, p.ws[i].objs = 0, 0
	}
	// No spaces are created during a mark, so one snapshot serves the whole
	// drain; workers index it without the sequential path's lazy refresh.
	m.spaces = m.H.Spaces

	p.queue.reset(workers)
	p.queue.buf = append(p.queue.buf, m.stack...)
	m.stack = m.stack[:0]
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		ws := &p.ws[i]
		labels := m.H.workerLabels(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				m.markWorkerLoop(ws, &p.queue)
			})
		}()
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		m.WordsMarked += p.ws[i].words
		m.ObjectsMarked += p.ws[i].objs
	}
}

// markWorkerLoop is one worker's drain: pop a marked gray object, scan its
// payload, CAS-claim unmarked children in the bitmap.
//
// Mark state lives entirely in the side bitmap: a cheap atomic pre-probe
// (MarkedAtAtomic) filters already-claimed children, and TryMarkAtomic's
// CAS decides races. Headers and payloads are never written during a mark,
// so plain loads suffice for both.
func (m *Marker) markWorkerLoop(ws *markWorker, q *parQueue) {
	local := ws.stack
	spaces := m.spaces
	bounded := m.bounded
	region := &m.region
	extra := m.H.extraWords
	for {
		if len(local) == 0 {
			var ok bool
			local, ok = q.take(local, parTakeBatch)
			if !ok {
				break
			}
		}
		w := local[len(local)-1]
		local = local[:len(local)-1]
		mem := spaces[PtrSpace(w)].Mem
		off := PtrOff(w)
		hdr := mem[off]
		if RawPayload(HeaderType(hdr)) {
			continue
		}
		for si, end := off+1+extra, off+ObjWords(hdr); si < end; si++ {
			v := mem[si]
			if !IsPtr(v) {
				continue
			}
			vid := PtrSpace(v)
			if bounded && !region.Has(vid) {
				continue
			}
			vs := spaces[vid]
			voff := PtrOff(v)
			if vs.MarkedAtAtomic(voff) {
				continue
			}
			if !vs.TryMarkAtomic(voff) {
				continue // lost the claim: the winner counted and queued it
			}
			ws.words += uint64(ObjWords(vs.Mem[voff]))
			ws.objs++
			local = append(local, v)
		}
		if len(local) >= parSpillHigh {
			half := len(local) / 2
			q.put(local[:half])
			n := copy(local, local[half:])
			local = local[:n]
		}
	}
	ws.stack = local[:0]
}

// workerLabels builds the pprof label set a tracing worker goroutine runs
// under, so profiles attribute parallel GC samples to a worker index and
// the collector that owns the heap.
func (h *Heap) workerLabels(i int) pprof.LabelSet {
	name := h.collectorLabel
	if name == "" {
		name = "none"
	}
	return pprof.Labels("gc-worker", strconv.Itoa(i), "collector", name)
}
