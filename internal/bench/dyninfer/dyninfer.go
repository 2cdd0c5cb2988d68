// Package dyninfer implements a Henglein-style dynamic type inference — the
// actual computation behind the paper's 10dynamic benchmark ("Henglein's
// dynamic type inference [25]" iterated 10 times on its own source).
//
// The analysis walks Scheme expressions, allocates a type variable (a heap
// box) for every subterm and binding, and unifies type terms with a
// union-find whose parent links live in the heap and are updated by
// mutation — so the inference exercises the write barrier and remembered
// sets heavily, with old union-find roots constantly acquiring pointers to
// younger class representatives. Each iteration keeps its whole constraint
// graph live until the iteration ends and then drops it: the mass
// extinction profile of Figure 2 arises from the real algorithm here,
// while internal/bench/dynamicw remains the calibrated substitute used for
// Tables 4–5.
//
// Type terms are heap data:
//
//	tvar:        (box <rank-fixnum>)            an unbound root
//	link:        (box <type>)                   a forwarded class (rank < 0)
//	constructor: (ctor-symbol arg-type ...)     fun, pair, num, bool, sym
package dyninfer

import (
	"fmt"

	"rdgc/internal/heap"
	"rdgc/internal/sexp"
)

// Prog runs the inference Iterations times over the embedded corpus.
type Prog struct {
	Iterations int

	h *heap.Heap

	// Unifications and Conflicts count work for verification: the corpus
	// is written so its types are consistent, so Conflicts must be 0.
	Unifications int
	Conflicts    int
	Vars         int
}

// New creates the benchmark; the paper iterates 10 times.
func New(iterations int) *Prog { return &Prog{Iterations: iterations} }

// Name implements bench.Program.
func (p *Prog) Name() string { return fmt.Sprintf("%ddyninfer", p.Iterations) }

// HeapWords implements bench.Program.
func (p *Prog) HeapWords() int { return 1 << 17 }

// Run implements bench.Program.
func (p *Prog) Run(h *heap.Heap) error {
	p.h = h
	p.Unifications, p.Conflicts, p.Vars = 0, 0, 0
	for i := 0; i < p.Iterations; i++ {
		s := h.Scope()
		program := sexp.MustReadAll(h, corpus)
		env := p.emptyEnv()
		cur := h.Dup(program)
		for h.IsPair(cur) {
			env = p.inferTop(h.Car(cur), env)
			h.Set(cur, h.Get(h.Cdr(cur)))
		}
		s.Close() // the iteration's entire constraint graph dies here
		if p.Conflicts > 0 {
			return fmt.Errorf("dyninfer: %d type conflicts in a well-typed corpus", p.Conflicts)
		}
	}
	if p.Unifications == 0 || p.Vars == 0 {
		return fmt.Errorf("dyninfer: no inference happened")
	}
	return nil
}

// Type terms are union-find nodes: every term — variable or constructor —
// is a heap box. A box holding a fixnum is an unbound variable (the fixnum
// is its rank); a box holding a pair is a constructor root (the pair is
// the (ctor-symbol arg-box ...) list); a box holding another box is a link.
// Making constructors nodes too is what lets unification handle the
// recursive types that occur-check-free inference builds (Huet's
// algorithm): two constructor classes are unioned *before* their children
// unify, so revisiting the same pair terminates at Eq.

func (p *Prog) freshVar() heap.Ref {
	p.Vars++
	s := p.h.Scope()
	return s.Return(p.h.Box(p.h.Fix(0)))
}

func (p *Prog) ctor(name string, args ...heap.Ref) heap.Ref {
	s := p.h.Scope()
	elems := append([]heap.Ref{p.h.Intern(name)}, args...)
	lst := p.h.List(elems...)
	return s.Return(p.h.Box(lst))
}

func (p *Prog) isBox(t heap.Ref) bool {
	w := p.h.Get(t)
	return heap.IsPtr(w) && heap.HeaderType(p.h.Header(w)) == heap.TBox
}

// find follows links to the class representative, with path compression —
// mutation that hammers the write barrier.
func (p *Prog) find(t heap.Ref) heap.Ref {
	h := p.h
	s := h.Scope()
	cur := h.Dup(t)
	for {
		inner := h.Unbox(cur)
		if !p.isBox(inner) {
			break // fixnum rank (variable) or pair (constructor): a root
		}
		if inner2 := h.Unbox(inner); p.isBox(inner2) {
			h.SetBox(cur, inner2) // compress one hop
		}
		h.Set(cur, h.Get(inner))
	}
	return s.Return(cur)
}

// payload returns the representative's contents: a fixnum (variable rank)
// or a pair (constructor list).
func (p *Prog) payload(rep heap.Ref) heap.Ref { return p.h.Unbox(rep) }

// unify merges two type terms, returning false on a constructor clash.
func (p *Prog) unify(a, b heap.Ref) bool {
	h := p.h
	p.Unifications++
	s := h.Scope()
	defer s.Close()
	ra, rb := p.find(a), p.find(b)
	if h.Eq(ra, rb) {
		return true
	}
	pa, pb := p.payload(ra), p.payload(rb)
	aVar, bVar := h.IsFix(pa), h.IsFix(pb)
	switch {
	case aVar && bVar:
		// Union by rank.
		rka, rkb := h.FixVal(pa), h.FixVal(pb)
		if rka < rkb {
			ra, rb = rb, ra
		} else if rka == rkb {
			h.SetBox(ra, h.Fix(rka+1))
		}
		h.SetBox(rb, ra)
		return true
	case aVar:
		h.SetBox(ra, rb)
		return true
	case bVar:
		h.SetBox(rb, ra)
		return true
	default:
		// Two constructors: union the classes first so recursive types
		// terminate, then check names and unify the children.
		ca, cb := h.Car(pa), h.Car(pb)
		if !h.Eq(ca, cb) {
			p.Conflicts++
			return false
		}
		h.SetBox(ra, rb)
		wa, wb := h.Cdr(pa), h.Cdr(pb)
		for h.IsPair(wa) && h.IsPair(wb) {
			if !p.unify(h.Car(wa), h.Car(wb)) {
				return false
			}
			h.Set(wa, h.Get(h.Cdr(wa)))
			h.Set(wb, h.Get(h.Cdr(wb)))
		}
		if !h.IsNull(wa) || !h.IsNull(wb) {
			p.Conflicts++
			return false
		}
		return true
	}
}

// Environments are association lists (symbol . type) on the heap.

func (p *Prog) emptyEnv() heap.Ref { return p.h.Null() }

func (p *Prog) bind(env, name, typ heap.Ref) heap.Ref {
	s := p.h.Scope()
	return s.Return(p.h.Cons(p.h.Cons(name, typ), env))
}

func (p *Prog) lookup(env, name heap.Ref) (heap.Ref, bool) {
	h := p.h
	s := h.Scope()
	cur := h.Dup(env)
	for h.IsPair(cur) {
		pair := h.Car(cur)
		if h.Eq(h.Car(pair), name) {
			w := h.Get(h.Cdr(pair))
			s.Close()
			return h.RefOf(w), true
		}
		h.Set(cur, h.Get(h.Cdr(cur)))
	}
	s.Close()
	return heap.InvalidRef, false
}

// inferTop processes one toplevel form, extending the global environment
// for (define name expr).
func (p *Prog) inferTop(form, env heap.Ref) heap.Ref {
	h := p.h
	s := h.Scope()
	if h.IsPair(form) && h.Eq(h.Car(form), h.Intern("define")) {
		name := h.Car(h.Cdr(form))
		tv := p.freshVar()
		env2 := p.bind(env, name, tv) // bound first: definitions may recurse
		t := p.infer(h.Car(h.Cdr(h.Cdr(form))), env2)
		p.unify(tv, t)
		return s.Return(env2)
	}
	p.infer(form, env)
	return s.Return(env)
}

// infer computes (and constrains) the type of expr under env.
func (p *Prog) infer(expr, env heap.Ref) heap.Ref {
	h := p.h
	s := h.Scope()
	switch {
	case h.IsFix(expr):
		return s.Return(p.ctor("num"))
	case h.IsSymbol(expr):
		if t, ok := p.lookup(env, expr); ok {
			return s.Return(t)
		}
		// Free identifiers get fresh types, as in a dynamic analysis.
		return s.Return(p.freshVar())
	case !h.IsPair(expr):
		return s.Return(p.freshVar())
	}

	op := h.Car(expr)
	switch {
	case h.Eq(op, h.Intern("quote")):
		return s.Return(p.quotedType(h.Car(h.Cdr(expr))))
	case h.Eq(op, h.Intern("lambda")):
		params := h.Car(h.Cdr(expr))
		body := h.Car(h.Cdr(h.Cdr(expr)))
		env2 := h.Dup(env)
		var ptypes []heap.Ref
		cur := h.Dup(params)
		for h.IsPair(cur) {
			tv := p.freshVar()
			env2 = p.bind(env2, h.Car(cur), tv)
			ptypes = append(ptypes, tv)
			h.Set(cur, h.Get(h.Cdr(cur)))
		}
		ret := p.infer(body, env2)
		args := append(ptypes, ret)
		return s.Return(p.ctor("fun", args...))
	case h.Eq(op, h.Intern("if")):
		c := p.infer(h.Car(h.Cdr(expr)), env)
		p.unify(c, p.ctor("bool"))
		t1 := p.infer(h.Car(h.Cdr(h.Cdr(expr))), env)
		t2 := p.infer(h.Car(h.Cdr(h.Cdr(h.Cdr(expr)))), env)
		p.unify(t1, t2)
		return s.Return(t1)
	case h.Eq(op, h.Intern("let")):
		// (let ((x e) ...) body)
		env2 := h.Dup(env)
		cur := h.Dup(h.Car(h.Cdr(expr)))
		for h.IsPair(cur) {
			binding := h.Car(cur)
			t := p.infer(h.Car(h.Cdr(binding)), env)
			env2 = p.bind(env2, h.Car(binding), t)
			h.Set(cur, h.Get(h.Cdr(cur)))
		}
		return s.Return(p.infer(h.Car(h.Cdr(h.Cdr(expr))), env2))
	case h.Eq(op, h.Intern("cons")):
		a := p.infer(h.Car(h.Cdr(expr)), env)
		d := p.infer(h.Car(h.Cdr(h.Cdr(expr))), env)
		return s.Return(p.ctor("pair", a, d))
	case h.Eq(op, h.Intern("car")), h.Eq(op, h.Intern("cdr")):
		t := p.infer(h.Car(h.Cdr(expr)), env)
		a, d := p.freshVar(), p.freshVar()
		p.unify(t, p.ctor("pair", a, d))
		if h.Eq(op, h.Intern("car")) {
			return s.Return(a)
		}
		return s.Return(d)
	case h.Eq(op, h.Intern("+")), h.Eq(op, h.Intern("-")), h.Eq(op, h.Intern("*")):
		a := p.infer(h.Car(h.Cdr(expr)), env)
		b := p.infer(h.Car(h.Cdr(h.Cdr(expr))), env)
		num := p.ctor("num")
		p.unify(a, num)
		p.unify(b, num)
		return s.Return(num)
	case h.Eq(op, h.Intern("null?")), h.Eq(op, h.Intern("zero?")), h.Eq(op, h.Intern("<")):
		for cur := h.Cdr(expr); h.IsPair(cur); cur = h.Cdr(cur) {
			p.infer(h.Car(cur), env)
		}
		return s.Return(p.ctor("bool"))
	default:
		// Application: (f a1 ... an) constrains f : (fun t1 ... tn r).
		f := p.infer(op, env)
		var args []heap.Ref
		cur := h.Dup(h.Cdr(expr))
		for h.IsPair(cur) {
			args = append(args, p.infer(h.Car(cur), env))
			h.Set(cur, h.Get(h.Cdr(cur)))
		}
		ret := p.freshVar()
		p.unify(f, p.ctor("fun", append(args, ret)...))
		return s.Return(ret)
	}
}

// quotedType types quoted data structurally.
func (p *Prog) quotedType(datum heap.Ref) heap.Ref {
	h := p.h
	s := h.Scope()
	switch {
	case h.IsFix(datum):
		return s.Return(p.ctor("num"))
	case h.IsSymbol(datum):
		return s.Return(p.ctor("sym"))
	case h.IsPair(datum):
		a := p.quotedType(h.Car(datum))
		d := p.quotedType(h.Cdr(datum))
		return s.Return(p.ctor("pair", a, d))
	default:
		return s.Return(p.freshVar())
	}
}
