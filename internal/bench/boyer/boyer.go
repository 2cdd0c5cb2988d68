// Package boyer implements the nboyer and sboyer benchmarks of Table 2: Bob
// Boyer's theorem-prover benchmark, rewritten to rewrite terms allocated in
// the simulated heap. nboyer is the updated classic; sboyer adds Henry
// Baker's "shared consing" tweak, in which the rewriter returns the
// original term whenever the rewritten subterms are pointer-identical to
// the originals, trading a slightly slower mutator for far less allocation
// — the change whose effect on object lifetimes Section 7.2 studies
// (Figure 4, Table 7).
package boyer

import (
	"fmt"

	"rdgc/internal/heap"
	"rdgc/internal/sexp"
)

// Prog is one configuration of the benchmark.
type Prog struct {
	// N is the problem scaling parameter (1 is the classic problem; each
	// increment wraps the substituted terms one more level, roughly
	// doubling the tautology-checking work).
	N int
	// Shared enables sboyer's shared consing.
	Shared bool

	h     *heap.Heap
	rules map[int64]heap.Ref // lemma lists keyed by operator symbol id

	trueT  heap.Ref
	falseT heap.Ref

	// RewriteCount and UnifyCount record mutator work, for reporting.
	RewriteCount int
	UnifyCount   int
}

// New creates a Boyer benchmark instance.
func New(n int, shared bool) *Prog {
	if n < 1 {
		panic("boyer: scale must be >= 1")
	}
	return &Prog{N: n, Shared: shared}
}

// Name implements bench.Program.
func (p *Prog) Name() string {
	if p.Shared {
		return fmt.Sprintf("sboyer%d", p.N)
	}
	return fmt.Sprintf("nboyer%d", p.N)
}

// HeapWords implements bench.Program.
func (p *Prog) HeapWords() int { return 1 << (17 + p.N) }

// Run implements bench.Program.
func (p *Prog) Run(h *heap.Heap) error {
	p.h = h
	p.RewriteCount, p.UnifyCount = 0, 0
	p.setup()

	s := h.Scope()
	defer s.Close()

	theorem := sexp.MustReadString(h, theoremText)
	subst := sexp.MustReadString(h, substText)
	term := p.applySubst(subst, theorem)
	term = p.scaleTerm(term)

	if !p.tautp(term) {
		return fmt.Errorf("boyer: the test theorem was not proved")
	}
	if p.RewriteCount == 0 || p.UnifyCount == 0 {
		return fmt.Errorf("boyer: no rewriting happened (rewrites=%d unifies=%d)",
			p.RewriteCount, p.UnifyCount)
	}
	return nil
}

// setup reads the lemma base into the heap and indexes it by operator, the
// nboyer replacement for the original's property lists. The lemmas are
// rooted globally, like the static area Larceny gives the standard library.
func (p *Prog) setup() {
	h := p.h
	p.rules = make(map[int64]heap.Ref)
	p.trueT = h.Global(sexp.MustReadString(h, "(t)"))
	p.falseT = h.Global(sexp.MustReadString(h, "(f)"))

	s := h.Scope()
	defer s.Close()
	lemmas := sexp.MustReadAll(h, lemmaText)
	cur := h.Dup(lemmas)
	for h.IsPair(cur) {
		s2 := h.Scope()
		lemma := h.Car(cur)
		lhs := h.Car(h.Cdr(lemma))
		op := h.Car(lhs)
		if !h.IsSymbol(op) {
			panic("boyer: lemma lhs operator is not a symbol: " + sexp.Print(h, lemma))
		}
		id := p.symID(op)
		bucket, ok := p.rules[id]
		if !ok {
			bucket = h.GlobalWord(heap.NullWord)
			p.rules[id] = bucket
		}
		ext := h.Cons(lemma, bucket)
		h.Set(bucket, h.Get(ext))
		h.Set(cur, h.Get(h.Cdr(cur)))
		s2.Close()
	}
}

func (p *Prog) symID(r heap.Ref) int64 {
	h := p.h
	s := h.Scope()
	defer s.Close()
	w := h.Get(r)
	return heap.FixnumVal(h.Payload(w)[0])
}

// scaleTerm wraps the instantiated theorem in N-1 levels of (or <term> (f)),
// the problem scaling: each level forces one more full renormalization of
// the theorem's rewritten form, roughly doubling the work and allocation
// while preserving the theorem's truth.
func (p *Prog) scaleTerm(term heap.Ref) heap.Ref {
	h := p.h
	s := h.Scope()
	orSym := h.Intern("or")
	fTerm := h.Dup(p.falseT)
	t := h.Dup(term)
	for i := 1; i < p.N; i++ {
		t = h.List(orSym, t, fTerm)
	}
	return s.Return(t)
}

// applySubst instantiates term under the variable bindings in alist.
// Operators (the car of applications) are never substituted.
func (p *Prog) applySubst(alist, term heap.Ref) heap.Ref {
	h := p.h
	s := h.Scope()
	if h.IsSymbol(term) {
		if hit, v := p.assq(alist, term); hit {
			return s.Return(v)
		}
		return s.Return(term)
	}
	if !h.IsPair(term) {
		return s.Return(term)
	}
	op := h.Car(term)
	args := p.applySubstLst(alist, h.Cdr(term))
	return s.Return(h.Cons(op, args))
}

func (p *Prog) applySubstLst(alist, lst heap.Ref) heap.Ref {
	h := p.h
	s := h.Scope()
	if !h.IsPair(lst) {
		return s.Return(lst)
	}
	a := p.applySubst(alist, h.Car(lst))
	d := p.applySubstLst(alist, h.Cdr(lst))
	if p.Shared && h.Eq(a, h.Car(lst)) && h.Eq(d, h.Cdr(lst)) {
		return s.Return(lst)
	}
	return s.Return(h.Cons(a, d))
}

// assq looks a symbol up in an association list by identity.
func (p *Prog) assq(alist, key heap.Ref) (bool, heap.Ref) {
	h := p.h
	s := h.Scope()
	cur := h.Dup(alist)
	for h.IsPair(cur) {
		pair := h.Car(cur)
		if h.Eq(h.Car(pair), key) {
			v := h.Cdr(pair)
			w := h.Get(v)
			s.Close()
			return true, h.RefOf(w)
		}
		h.Set(cur, h.Get(h.Cdr(cur)))
	}
	s.Close()
	return false, heap.InvalidRef
}

// rewrite normalizes a term bottom-up, applying lemmas at every level.
func (p *Prog) rewrite(term heap.Ref) heap.Ref {
	h := p.h
	p.RewriteCount++
	s := h.Scope()
	if !h.IsPair(term) {
		return s.Return(term)
	}
	op := h.Car(term)
	args := p.rewriteArgs(h.Cdr(term))
	var t2 heap.Ref
	if p.Shared && h.Eq(args, h.Cdr(term)) {
		t2 = h.Dup(term)
	} else {
		t2 = h.Cons(op, args)
	}
	return s.Return(p.rewriteWithLemmas(t2, op))
}

func (p *Prog) rewriteArgs(lst heap.Ref) heap.Ref {
	h := p.h
	s := h.Scope()
	if !h.IsPair(lst) {
		return s.Return(lst)
	}
	a := p.rewrite(h.Car(lst))
	d := p.rewriteArgs(h.Cdr(lst))
	if p.Shared && h.Eq(a, h.Car(lst)) && h.Eq(d, h.Cdr(lst)) {
		return s.Return(lst)
	}
	return s.Return(h.Cons(a, d))
}

func (p *Prog) rewriteWithLemmas(term, op heap.Ref) heap.Ref {
	h := p.h
	s := h.Scope()
	if !h.IsSymbol(op) {
		return s.Return(term)
	}
	bucket, ok := p.rules[p.symID(op)]
	if !ok {
		return s.Return(term)
	}
	cur := h.Dup(bucket)
	for h.IsPair(cur) {
		s2 := h.Scope()
		lemma := h.Car(cur)
		lhs := h.Car(h.Cdr(lemma))
		rhs := h.Car(h.Cdr(h.Cdr(lemma)))
		if ok, subst := p.onewayUnify(term, lhs); ok {
			instantiated := p.applySubst(subst, rhs)
			result := p.rewrite(instantiated)
			w := h.Get(result)
			s2.Close()
			h.Set(term, w) // reuse the term ref slot for the result
			return s.Return(term)
		}
		s2.Close()
		h.Set(cur, h.Get(h.Cdr(cur)))
	}
	return s.Return(term)
}

// onewayUnify matches term against pattern, returning the binding alist.
// Pattern variables are bare symbols; operators must be identical symbols.
func (p *Prog) onewayUnify(term, pattern heap.Ref) (bool, heap.Ref) {
	p.UnifyCount++
	h := p.h
	s := h.Scope()
	subst := h.Null()
	ok, subst := p.unify1(term, pattern, subst)
	if !ok {
		s.Close()
		return false, heap.InvalidRef
	}
	return true, s.Return(subst)
}

func (p *Prog) unify1(term, pattern, subst heap.Ref) (bool, heap.Ref) {
	h := p.h
	if h.IsSymbol(pattern) {
		if hit, bound := p.assq(subst, pattern); hit {
			return sexp.Equal(h, term, bound), subst
		}
		s := h.Scope()
		ext := h.Cons(h.Cons(pattern, term), subst)
		return true, s.Return(ext)
	}
	if !h.IsPair(pattern) {
		// Non-symbol atoms (fixnums, ()) match only themselves.
		return sexp.Equal(h, term, pattern), subst
	}
	if !h.IsPair(term) {
		return false, subst
	}
	s := h.Scope()
	if !h.Eq(h.Car(term), h.Car(pattern)) {
		s.Close()
		return false, subst
	}
	ok, subst2 := p.unifyLst(h.Cdr(term), h.Cdr(pattern), h.Dup(subst))
	if !ok {
		s.Close()
		return false, subst
	}
	return true, s.Return(subst2)
}

func (p *Prog) unifyLst(terms, patterns, subst heap.Ref) (bool, heap.Ref) {
	h := p.h
	if h.IsNull(patterns) {
		return h.IsNull(terms), subst
	}
	if !h.IsPair(terms) || !h.IsPair(patterns) {
		return false, subst
	}
	s := h.Scope()
	ok, subst2 := p.unify1(h.Car(terms), h.Car(patterns), h.Dup(subst))
	if !ok {
		s.Close()
		return false, subst
	}
	ok, subst3 := p.unifyLst(h.Cdr(terms), h.Cdr(patterns), subst2)
	if !ok {
		s.Close()
		return false, subst
	}
	return true, s.Return(subst3)
}

// tautp rewrites x to normal form and checks it is a tautology.
func (p *Prog) tautp(x heap.Ref) bool {
	h := p.h
	s := h.Scope()
	defer s.Close()
	normal := p.rewrite(x)
	return p.tautologyp(normal, h.Null(), h.Null())
}

func (p *Prog) tautologyp(x, trueLst, falseLst heap.Ref) bool {
	h := p.h
	s := h.Scope()
	defer s.Close()
	if p.truep(x, trueLst) {
		return true
	}
	if p.falsep(x, falseLst) {
		return false
	}
	if !h.IsPair(x) {
		return false
	}
	if !h.Eq(h.Car(x), h.Intern("if")) {
		return false
	}
	cond := h.Car(h.Cdr(x))
	then := h.Car(h.Cdr(h.Cdr(x)))
	els := h.Car(h.Cdr(h.Cdr(h.Cdr(x))))
	switch {
	case p.truep(cond, trueLst):
		return p.tautologyp(then, trueLst, falseLst)
	case p.falsep(cond, falseLst):
		return p.tautologyp(els, trueLst, falseLst)
	default:
		return p.tautologyp(then, h.Cons(cond, trueLst), falseLst) &&
			p.tautologyp(els, trueLst, h.Cons(cond, falseLst))
	}
}

func (p *Prog) truep(x, lst heap.Ref) bool {
	return sexp.Equal(p.h, x, p.trueT) || p.memberEqual(x, lst)
}

func (p *Prog) falsep(x, lst heap.Ref) bool {
	return sexp.Equal(p.h, x, p.falseT) || p.memberEqual(x, lst)
}

func (p *Prog) memberEqual(x, lst heap.Ref) bool {
	h := p.h
	s := h.Scope()
	defer s.Close()
	cur := h.Dup(lst)
	for h.IsPair(cur) {
		if sexp.Equal(h, x, h.Car(cur)) {
			return true
		}
		h.Set(cur, h.Get(h.Cdr(cur)))
	}
	return false
}
