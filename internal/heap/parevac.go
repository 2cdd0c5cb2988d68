package heap

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Parallel copying: Evacuator.Drain dispatches here when the heap is
// configured with GCWorkers >= 2 (and age routing is not armed). Reservation
// has two modes:
//
//   - Exact-fit (the default): workers carve copy space per object directly
//     out of the shared targets with an atomic CAS bump on a per-target
//     cursor. No buffer padding or filler ever lands in a target, so the
//     words-copied totals, survival counts, census, and (for single-target
//     collections) the final Top are identical to the sequential engine for
//     every worker count — at the price of one contended CAS per copied
//     object.
//   - Per-worker allocation buffers (Config.LAB / RDGC_GC_LAB): each worker
//     claims whole BlockWords-sized buffers from the shared cursors and bump-allocates copies inside its buffer with
//     plain stores, cutting cursor contention by ~BlockWords/avg-object.
//     Retiring a buffer writes its unused tail as a TFree filler block (the
//     space stays linearly parsable) and adds the tail to Space.Waste, so
//     Used() — and every stat derived from it — is block-granularly
//     accounted and identical to the sequential engine at every worker
//     count. Top itself becomes schedule-dependent; DESIGN.md
//     "Block-structured heap" spells out this per-block-accountable tier.
//
// In both modes, instead of Cheney-scanning target regions, each worker
// keeps an explicit gray stack of the objects it copied (exactly one
// publisher per object, the CAS winner), balanced through the shared
// parQueue.
//
// Forwarding installation is a two-phase claim on the from-object's header:
// CAS header -> busyHeader, copy, then atomically publish the forwarding
// pointer. Losers spin (yielding, so single-CPU schedules make progress)
// until the pointer appears. Exactly one worker copies each object, which
// is what keeps every word counter bit-identical to sequential — and what
// lets the winner carry the object's identity entry (identity.go) with plain
// stores: the from-offset, the to-offset and the ordinal are its alone.
//
// What is NOT preserved (in either mode) is the distribution of copies
// across multiple targets near capacity boundaries: first-fit packing
// depends on arrival order, so multi-target collections can strand or fill
// slightly different amounts per target than the sequential engine (the
// totals still match). DESIGN.md "Parallel tracing" spells out this
// determinism contract.

// busyHeader is the in-progress claim word installed in a from-object's
// header slot between the winning CAS and the forwarding-pointer store. It
// is an immediate subtype no code path ever constructs, so it collides with
// neither a real header (tag 11), a forwarding pointer (tag 01), nor any
// live immediate.
const busyHeader = TagImm | Word(63)<<2

// labRetire records one retired allocation buffer's unused tail, applied to
// Space.Waste after the drain (workers may not mutate shared Space fields
// mid-drain).
type labRetire struct {
	s     *Space
	words int
}

// evacWorker is one worker's persistent drain state.
type evacWorker struct {
	stack []Word
	words uint64
	objs  int

	// Allocation-buffer state (LAB mode only): copies bump labOff within
	// [labOff, labEnd) of lab, a whole-block region this worker owns.
	lab     *Space
	labOff  int
	labEnd  int
	retired []labRetire
}

// evacCursor is a shared bump cursor for one target space, padded to a
// cache line so concurrent reservations on different targets do not false
// share.
type evacCursor struct {
	top int64
	_   [7]int64
}

// evacTargets is an immutable snapshot of the target list: workers read it
// through an atomic pointer, and Overflow growth publishes a fresh snapshot
// rather than mutating the one in flight (the cursors are shared by
// pointer, so reservations made against an old snapshot are never lost).
type evacTargets struct {
	targets []*Space
	cursors []*evacCursor
	base    []int // scan base per target, for CopiedRegions write-back
	spaces  []*Space
}

// parEvac is the Evacuator's persistent parallel machinery.
type parEvac struct {
	queue   parQueue
	ws      []evacWorker
	tgt     atomic.Pointer[evacTargets]
	ovMu    sync.Mutex // serializes Overflow growth and snapshot publishing
	cur     *evacTargets
	cursors []*evacCursor
	lab     bool // this drain reserves through per-worker buffers
}

// drainParallel scans the gray regions of every target over workers (>= 2)
// goroutines and blocks until no gray object remains.
func (e *Evacuator) drainParallel(workers int) {
	if e.par == nil {
		e.par = &parEvac{}
	}
	p := e.par
	for len(p.ws) < workers {
		p.ws = append(p.ws, evacWorker{})
	}
	for i := 0; i < workers; i++ {
		p.ws[i].words, p.ws[i].objs = 0, 0
	}

	// Build the initial snapshot in place (no workers are running yet), and
	// seed the gray set from the regions the sequential root evacuation
	// already filled: [scan[i], Top) of every target.
	t := p.cur
	if t == nil {
		t = new(evacTargets)
		p.cur = t
	}
	t.targets = append(t.targets[:0], e.Targets...)
	t.base = append(t.base[:0], e.scanBase...)
	for len(p.cursors) < len(t.targets) {
		p.cursors = append(p.cursors, new(evacCursor))
	}
	t.cursors = append(t.cursors[:0], p.cursors[:len(t.targets)]...)
	for i, tg := range t.targets {
		atomic.StoreInt64(&t.cursors[i].top, int64(tg.Top))
	}
	e.spaces = e.H.Spaces
	t.spaces = e.spaces
	p.tgt.Store(t)
	p.lab = e.H.cfg.LAB

	p.queue.reset(workers)
	p.queue.buf = e.seedGray(p.queue.buf)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		ws := &p.ws[i]
		labels := e.H.workerLabels(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				e.evacWorkerLoop(ws, &p.queue)
			})
		}()
	}
	wg.Wait()

	// Retire every worker's open allocation buffer (workers are done, so
	// writing the TFree filler tails is race-free) and apply the logged
	// waste to the owning spaces before Tops are published.
	if p.lab {
		for i := 0; i < workers; i++ {
			ws := &p.ws[i]
			e.retireLAB(ws)
			for _, r := range ws.retired {
				r.s.Waste += r.words
			}
			ws.retired = ws.retired[:0]
		}
	}

	// Publish the drain's results back into the engine's sequential state:
	// cursor positions become the real Tops, every target is fully scanned,
	// and Overflow-appended targets join Targets/scanBase so CopiedRegions
	// and re-drains see them exactly as they would sequentially.
	t = p.tgt.Load()
	p.cur = t
	e.Targets = append(e.Targets[:0], t.targets...)
	e.scanBase = append(e.scanBase[:0], t.base...)
	e.scan = e.scan[:0]
	for i, tg := range t.targets {
		tg.Top = int(atomic.LoadInt64(&t.cursors[i].top))
		e.scan = append(e.scan, tg.Top)
	}
	e.spaces = e.H.Spaces
	for i := 0; i < workers; i++ {
		e.WordsCopied += p.ws[i].words
		e.ObjectsCopied += p.ws[i].objs
	}
}

// seedGray collects the pointer words of every not-yet-scanned object in
// the targets (the objects the sequential root pass copied) into dst.
func (e *Evacuator) seedGray(dst []Word) []Word {
	for i, tg := range e.Targets {
		mem := tg.Mem
		for off := e.scan[i]; off < tg.Top; {
			dst = append(dst, PtrWord(tg.ID, off))
			off += ObjWords(mem[off])
		}
	}
	return dst
}

// evacWorkerLoop is one worker's drain: pop a gray to-space object, scan
// its payload, forward every from-region pointer.
//
// A gray object is scanned only by the worker that copied it (its CAS
// winner published it exactly once), so its header and payload are read and
// written with plain accesses; the happens-before edge for objects received
// through the queue is the queue's mutex.
func (e *Evacuator) evacWorkerLoop(ws *evacWorker, q *parQueue) {
	p := e.par
	t := p.tgt.Load()
	extra := e.extra
	local := ws.stack
	for {
		if len(local) == 0 {
			var ok bool
			local, ok = q.take(local, parTakeBatch)
			if !ok {
				break
			}
		}
		g := local[len(local)-1]
		local = local[:len(local)-1]
		if int(PtrSpace(g)) >= len(t.spaces) {
			// The object lives in a target Overflow appended after our
			// snapshot; the publish order guarantees the reload sees it.
			t = p.tgt.Load()
		}
		mem := t.spaces[PtrSpace(g)].Mem
		off := PtrOff(g)
		hdr := mem[off]
		if RawPayload(HeaderType(hdr)) {
			continue
		}
		for si, end := off+1+extra, off+ObjWords(hdr); si < end; si++ {
			w := mem[si]
			if !IsPtr(w) || !e.from.Has(PtrSpace(w)) {
				continue
			}
			fwd, fresh, nt := e.parForward(w, ws, t)
			t = nt
			mem[si] = fwd
			if fresh {
				local = append(local, fwd)
			}
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

// parForward returns the to-space address of the from-object w points to,
// copying it if this worker wins the claim (fresh reports a win, and the
// caller queues the copy for scanning). The returned snapshot replaces the
// caller's when reservation had to grow the target list.
func (e *Evacuator) parForward(w Word, ws *evacWorker, t *evacTargets) (Word, bool, *evacTargets) {
	s := t.spaces[PtrSpace(w)] // from-spaces all predate Begin, so any snapshot has them
	off := PtrOff(w)
	addr := &s.Mem[off]
	hdr := loadWord(addr)
	for {
		if IsPtr(hdr) { // already forwarded: header slot holds the new address
			return hdr, false, t
		}
		if hdr == busyHeader {
			// Another worker is mid-copy; yield so its goroutine can finish
			// even on a single-CPU schedule.
			runtime.Gosched()
			hdr = loadWord(addr)
			continue
		}
		if !casWord(addr, hdr, busyHeader) {
			hdr = loadWord(addr)
			continue
		}
		n := ObjWords(hdr)
		var dst *Space
		var doff int
		if e.par.lab {
			dst, doff, t = e.labReserve(n, ws, t)
		} else {
			dst, doff, t = e.parReserve(n, t)
		}
		dmem := dst.Mem[doff : doff+n]
		dmem[0] = hdr
		copy(dmem[1:], s.Mem[off+1:off+n])
		fwd := PtrWord(dst.ID, doff)
		if s.ids != nil {
			e.H.carryIdentity(s, off, dst, doff, fwd)
		}
		storeWord(addr, fwd)
		ws.words += uint64(n)
		ws.objs++
		return fwd, true, t
	}
}

// labReserve reserves n words through the worker's allocation buffer:
// in-buffer requests are a plain bump, and a miss claims a fresh
// whole-block buffer from the shared cursors (retiring the old buffer's
// tail as accounted filler). Requests larger than a block, and requests
// arriving when no target can host a whole block, fall through to the
// exact-fit path — near capacity the two modes converge, which is what
// keeps the overflow policy identical.
func (e *Evacuator) labReserve(n int, ws *evacWorker, t *evacTargets) (*Space, int, *evacTargets) {
	if n <= ws.labEnd-ws.labOff {
		off := ws.labOff
		ws.labOff += n
		return ws.lab, off, t
	}
	if n > BlockWords {
		return e.parReserve(n, t)
	}
	for i, tg := range t.targets {
		c := t.cursors[i]
		limit := int64(len(tg.Mem) - BlockWords)
		for {
			cur := atomic.LoadInt64(&c.top)
			if cur > limit {
				break
			}
			if atomic.CompareAndSwapInt64(&c.top, cur, cur+BlockWords) {
				e.retireLAB(ws)
				ws.lab, ws.labOff, ws.labEnd = tg, int(cur), int(cur)+BlockWords
				off := ws.labOff
				ws.labOff += n
				return tg, off, t
			}
		}
	}
	return e.parReserve(n, t)
}

// retireLAB closes the worker's open buffer: the unused tail becomes a
// TFree filler block (the words are this worker's, so the store is
// race-free) and is logged for Space.Waste accounting after the drain.
func (e *Evacuator) retireLAB(ws *evacWorker) {
	if ws.lab != nil && ws.labOff < ws.labEnd {
		rem := ws.labEnd - ws.labOff
		ws.lab.Mem[ws.labOff] = HeaderWord(TFree, rem-1)
		ws.retired = append(ws.retired, labRetire{ws.lab, rem})
	}
	ws.lab = nil
	ws.labOff, ws.labEnd = 0, 0
}

// parReserve carves n words out of the first target with room, via an
// atomic CAS bump on the target's shared cursor — exact fit, no per-worker
// buffering, no filler. When every target is full it grows the list through
// the Overflow callback under ovMu and publishes a fresh snapshot; cursors
// are shared by pointer across snapshots, so reservations racing against
// the growth are never lost.
func (e *Evacuator) parReserve(n int, t *evacTargets) (*Space, int, *evacTargets) {
	for {
		for i, tg := range t.targets {
			c := t.cursors[i]
			limit := int64(len(tg.Mem) - n)
			for {
				cur := atomic.LoadInt64(&c.top)
				if cur > limit {
					break
				}
				if atomic.CompareAndSwapInt64(&c.top, cur, cur+int64(n)) {
					return tg, int(cur), t
				}
			}
		}
		t = e.growTargets(n, t)
	}
}

// growTargets appends one Overflow space to the target list and publishes
// the result as a fresh snapshot under ovMu. The caller's snapshot stays
// immutable (other workers may still hold it); only the published pointer
// advances. Panic messages mirror the sequential reserve's.
func (e *Evacuator) growTargets(n int, t *evacTargets) *evacTargets {
	p := e.par
	p.ovMu.Lock()
	defer p.ovMu.Unlock()
	if latest := p.tgt.Load(); latest != t {
		// Another worker grew the list while we waited; retry against it.
		return latest
	}
	if e.Overflow == nil {
		panic(fmt.Sprintf("heap: evacuation overflow: no target space has %d free words", n))
	}
	ns := e.Overflow(n)
	if ns == nil {
		panic(fmt.Sprintf("heap: evacuation overflow: Overflow returned nil for a %d-word request", n))
	}
	if ns.Free() < n {
		panic(fmt.Sprintf("heap: evacuation overflow: Overflow returned space %q with %d free words, too small for %d",
			ns.Name, ns.Free(), n))
	}
	nc := new(evacCursor)
	atomic.StoreInt64(&nc.top, int64(ns.Top))
	nt := &evacTargets{
		targets: append(append(make([]*Space, 0, len(t.targets)+1), t.targets...), ns),
		cursors: append(append(make([]*evacCursor, 0, len(t.cursors)+1), t.cursors...), nc),
		base:    append(append(make([]int, 0, len(t.base)+1), t.base...), ns.Top),
		spaces:  e.H.Spaces, // Overflow registered a new space
	}
	p.tgt.Store(nt)
	return nt
}
