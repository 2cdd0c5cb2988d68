// Package lattice implements the lattice benchmark of Table 2: enumeration
// of monotone maps between finite lattices. It is the paper's exemplar of a
// purely functional program — a high allocation rate with almost no
// long-lived storage, since only the current search path is live.
package lattice

import (
	"fmt"

	"rdgc/internal/heap"
)

// Poset is a finite partial order on elements 0..N-1.
type Poset struct {
	N   int
	leq [][]bool
}

// Leq reports whether a ≤ b.
func (p *Poset) Leq(a, b int) bool { return p.leq[a][b] }

// Chain builds the total order 0 < 1 < ... < n-1.
func Chain(n int) *Poset {
	p := &Poset{N: n, leq: make([][]bool, n)}
	for i := range p.leq {
		p.leq[i] = make([]bool, n)
		for j := i; j < n; j++ {
			p.leq[i][j] = true
		}
	}
	return p
}

// Product builds the componentwise order on pairs (a_i, b_j).
func Product(a, b *Poset) *Poset {
	n := a.N * b.N
	p := &Poset{N: n, leq: make([][]bool, n)}
	for i := range p.leq {
		p.leq[i] = make([]bool, n)
	}
	for i1 := 0; i1 < a.N; i1++ {
		for j1 := 0; j1 < b.N; j1++ {
			for i2 := 0; i2 < a.N; i2++ {
				for j2 := 0; j2 < b.N; j2++ {
					p.leq[i1*b.N+j1][i2*b.N+j2] = a.leq[i1][i2] && b.leq[j1][j2]
				}
			}
		}
	}
	return p
}

// Power builds the k-fold product of p with itself.
func Power(p *Poset, k int) *Poset {
	out := p
	for i := 1; i < k; i++ {
		out = Product(out, p)
	}
	return out
}

// CountMonotoneGo counts monotone maps from one poset to another using
// plain Go — the reference the heap-allocating benchmark verifies against.
func CountMonotoneGo(from, to *Poset) int64 {
	img := make([]int, from.N)
	var rec func(i int) int64
	rec = func(i int) int64 {
		if i == from.N {
			return 1
		}
		var total int64
		for v := 0; v < to.N; v++ {
			ok := true
			for j := 0; j < i; j++ {
				if from.Leq(j, i) && !to.Leq(img[j], v) {
					ok = false
					break
				}
				if from.Leq(i, j) && !to.Leq(v, img[j]) {
					ok = false
					break
				}
			}
			if ok {
				img[i] = v
				total += rec(i + 1)
			}
		}
		return total
	}
	return rec(0)
}

// Prog is the benchmark: count monotone maps from Chain(2)^K to Chain(M),
// building every partial map as a heap list (one cons per extension), as
// the Scheme original does.
type Prog struct {
	K int // exponent of the source lattice (2-chain to the K)
	M int // size of the target chain
	// Repeat runs the whole enumeration this many times; each pass's maps
	// die when the next begins, giving the paper's high-allocation,
	// bounded-peak profile.
	Repeat int

	Count int64 // maps found by the last pass of Run
}

// New creates a lattice benchmark instance.
func New(k, m int) *Prog { return &Prog{K: k, M: m, Repeat: 1} }

// Name implements bench.Program.
func (p *Prog) Name() string { return "lattice" }

// HeapWords implements bench.Program.
func (p *Prog) HeapWords() int { return 1 << 16 }

// Run implements bench.Program. Like the Scheme original, the enumeration
// *materializes* the maps as a heap list (complete maps share their partial
// prefixes, trie-fashion), which is why the paper's Table 3 reports a
// multi-megabyte peak for a "purely functional" program: the result list is
// the only long-lived storage, and it all dies at once when Run returns.
func (p *Prog) Run(h *heap.Heap) error {
	from := Power(Chain(2), p.K)
	to := Chain(p.M)
	want := CountMonotoneGo(from, to)

	repeat := p.Repeat
	if repeat < 1 {
		repeat = 1
	}
	for r := 0; r < repeat; r++ {
		s := h.Scope()
		maps := p.enumerate(h, from, to, 0, h.Null(), h.Null())
		p.Count = int64(h.ListLen(maps))
		if p.Count != want {
			s.Close()
			return fmt.Errorf("lattice: pass %d counted %d monotone maps, want %d", r, p.Count, want)
		}
		if !p.isMonotone(h, from, to, h.Car(maps)) {
			s.Close()
			return fmt.Errorf("lattice: enumerated a non-monotone map")
		}
		s.Close()
	}
	return nil
}

// enumerate extends the partial map (a heap list, most recent image first)
// with every legal image of element i, consing completed maps onto acc.
func (p *Prog) enumerate(h *heap.Heap, from, to *Poset, i int, partial, acc heap.Ref) heap.Ref {
	s := h.Scope()
	if i == from.N {
		return s.Return(h.Cons(partial, acc))
	}
	out := h.Dup(acc)
	for v := 0; v < to.N; v++ {
		s2 := h.Scope()
		if p.compatible(h, from, to, i, v, partial) {
			ext := h.Cons(h.Fix(int64(v)), partial)
			out = s2.Return(p.enumerate(h, from, to, i+1, ext, out))
		} else {
			s2.Close()
		}
	}
	return s.Return(out)
}

// isMonotone re-checks one enumerated map (stored most recent image first).
func (p *Prog) isMonotone(h *heap.Heap, from, to *Poset, m heap.Ref) bool {
	s := h.Scope()
	defer s.Close()
	img := make([]int, from.N)
	cur := h.Dup(m)
	for i := from.N - 1; i >= 0; i-- {
		img[i] = int(h.FixVal(h.Car(cur)))
		h.Set(cur, h.Get(h.Cdr(cur)))
	}
	for a := 0; a < from.N; a++ {
		for b := 0; b < from.N; b++ {
			if from.Leq(a, b) && !to.Leq(img[a], img[b]) {
				return false
			}
		}
	}
	return true
}

// compatible checks monotonicity of assigning image v to element i. Like
// the Scheme original's lexicographic comparisons, it first materializes
// the candidate assignment in element order — a temporary list that dies as
// soon as the test finishes, which is what makes lattice allocation-heavy
// while its only long-lived storage is the result trie.
func (p *Prog) compatible(h *heap.Heap, from, to *Poset, i, v int, partial heap.Ref) bool {
	s := h.Scope()
	defer s.Close()
	// Reverse (v . partial) into element order 0..i.
	ordered := h.Null()
	cur := h.Cons(h.Fix(int64(v)), partial)
	for h.IsPair(cur) {
		ordered = h.Cons(h.Car(cur), ordered)
		h.Set(cur, h.Get(h.Cdr(cur)))
	}
	walk := h.Dup(ordered)
	for j := 0; j < i; j++ {
		img := int(h.FixVal(h.Car(walk)))
		if from.Leq(j, i) && !to.Leq(img, v) {
			return false
		}
		if from.Leq(i, j) && !to.Leq(v, img) {
			return false
		}
		h.Set(walk, h.Get(h.Cdr(walk)))
	}
	return true
}
