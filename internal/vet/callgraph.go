package vet

// The interprocedural layer bounds how often each `new` site runs. The
// escape analysis' walk over a body (escape.go) records the body's
// outgoing edges as it passes each call, method call, spawn, `new`,
// explicit destructor call and class-pointer `delete`, each with a
// static multiplicity: how many times the site can run per execution
// of the body, the product of the constant trip counts of the loops
// around it. Folding multiplicities over the resulting call graph from
// main bounds how often each callable runs, which in turn bounds how
// many allocations each `new` site can make (the pool pre-sizing
// hints).

import "amplify/internal/cc"

// Unbounded marks a statically unknown multiplicity or allocation
// bound: a loop without a constant trip count, recursion, or a call
// from a callable that is itself unbounded.
const Unbounded int64 = -1

// boundCap saturates multiplicity arithmetic: anything past it is as
// good as unbounded for a pre-sizing hint.
const boundCap = int64(1) << 40

// mulBound multiplies two bounds; Unbounded dominates and products
// saturate to Unbounded.
func mulBound(a, b int64) int64 {
	if a == Unbounded || b == Unbounded {
		return Unbounded
	}
	if a == 0 || b == 0 {
		return 0
	}
	if a > boundCap/b {
		return Unbounded
	}
	return a * b
}

// addBound adds two bounds with the same saturation rule.
func addBound(a, b int64) int64 {
	if a == Unbounded || b == Unbounded {
		return Unbounded
	}
	if a+b > boundCap {
		return Unbounded
	}
	return a + b
}

// node is one callable: a free function or a non-synthetic method.
type node struct {
	name   string // "f", "Cls::m", "Cls::Cls", "Cls::~Cls"
	body   *cc.Block
	params []*cc.Param
	// slots is the body's frame-slot count; sema numbers the
	// parameters first, then the locals.
	slots int
	sum   summary
	// pass is the body's escape walk, kept across sweeps.
	pass *bodyPass
	// edges are the body's outgoing calls, recorded on its first walk.
	edges []edge
	// mult bounds how many times the callable runs per execution of
	// main: 0 when unreachable, Unbounded under recursion or inside
	// loops without static trip counts.
	mult int64
	// indeg counts the calls into the callable that computeMults has
	// not folded yet, and reached marks it reachable from main.
	indeg   int
	reached bool
}

// edge is one call site: the callee and the site's multiplicity per
// execution of the calling body.
type edge struct {
	callee *node
	mult   int64
}

// intLit unwraps a constant integer expression.
func intLit(e cc.Expr) (int64, bool) {
	switch e := e.(type) {
	case *cc.IntLit:
		return e.Value, true
	case *cc.Paren:
		return intLit(e.X)
	}
	return 0, false
}

// constTrips bounds a for loop's trip count when it has the canonical
// counted shape — `for (i = c0; i < c1; i = i + step)` over one local
// i, with constant bounds, a positive constant step, and no other
// assignment to i — and returns Unbounded otherwise. The local is
// matched by sema's frame slot; a field is no induction variable, since
// any call in the body may assign it.
func constTrips(f *cc.For) int64 {
	var slot int
	var start int64
	switch init := f.Init.(type) {
	case *cc.VarDecl:
		v, ok := intLit(init.Init)
		if !ok {
			return Unbounded
		}
		slot, start = init.Slot, v
	case *cc.ExprStmt:
		as, ok := init.X.(*cc.AssignExpr)
		if !ok {
			return Unbounded
		}
		id, ok := as.LHS.(*cc.Ident)
		if !ok || id.Kind != cc.LocalIdent {
			return Unbounded
		}
		v, ok := intLit(as.RHS)
		if !ok {
			return Unbounded
		}
		slot, start = id.Slot, v
	default:
		return Unbounded
	}
	cond, ok := f.Cond.(*cc.Binary)
	if !ok || (cond.Op != cc.Lt && cond.Op != cc.Le) || !isLocal(cond.X, slot) {
		return Unbounded
	}
	limit, ok := intLit(cond.Y)
	if !ok {
		return Unbounded
	}
	post, ok := f.Post.(*cc.AssignExpr)
	if !ok || !isLocal(post.LHS, slot) {
		return Unbounded
	}
	step, ok := incStep(post.RHS, slot)
	if !ok || step <= 0 {
		return Unbounded
	}
	// The body must not assign the induction variable.
	clean := true
	walkStmt(f.Body, func(cc.Stmt) {}, func(e cc.Expr) {
		if as, ok := e.(*cc.AssignExpr); ok && isLocal(stripParens(as.LHS), slot) {
			clean = false
		}
	})
	if !clean {
		return Unbounded
	}
	span := limit - start
	if cond.Op == cc.Le {
		span++
	}
	if span <= 0 {
		return 0
	}
	return (span + step - 1) / step
}

// isLocal reports whether e is an identifier bound to the local in
// slot.
func isLocal(e cc.Expr, slot int) bool {
	id, ok := e.(*cc.Ident)
	return ok && id.Kind == cc.LocalIdent && id.Slot == slot
}

// incStep matches `i + c` / `c + i`, i the local in slot, and returns c.
func incStep(e cc.Expr, slot int) (int64, bool) {
	b, ok := e.(*cc.Binary)
	if !ok || b.Op != cc.Plus {
		return 0, false
	}
	if isLocal(b.X, slot) {
		return intLit(b.Y)
	}
	if isLocal(b.Y, slot) {
		return intLit(b.X)
	}
	return 0, false
}

// computeMults folds edge multiplicities over the call graph from
// main, after the summary fixpoint has recorded every edge: main runs
// once, a callee's bound is the sum over callers of caller-bound times
// site multiplicity, and any callable on or downstream of a cycle
// (recursion) is Unbounded. Unreachable callables stay at 0.
func computeMults(nodes []*node, root *node) {
	if root == nil {
		return
	}
	// Reachable subgraph, with each callable's in-degree within it.
	root.reached = true
	stack := []*node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.edges {
			e.callee.indeg++
			if !e.callee.reached {
				e.callee.reached = true
				stack = append(stack, e.callee)
			}
		}
	}
	// Kahn's algorithm over the reachable subgraph; callables left with
	// positive in-degree sit on or below a cycle. The sums commute, so
	// the visiting order does not matter.
	root.mult = 1
	var queue []*node
	for _, n := range nodes {
		if n.reached && n.indeg == 0 {
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range n.edges {
			e.callee.mult = addBound(e.callee.mult, mulBound(n.mult, e.mult))
			if e.callee.indeg--; e.callee.indeg == 0 {
				queue = append(queue, e.callee)
			}
		}
	}
	for _, n := range nodes {
		if n.reached && n.indeg > 0 {
			n.mult = Unbounded
		}
	}
}
