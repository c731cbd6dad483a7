package vet

// The interprocedural layer starts from a call graph over every MiniCC
// function and method. Edges carry two facts the escape and lifetime
// analyses need: whether the transfer is a spawn (the thread boundary
// of the shared/thread-local split) and a static multiplicity — how
// many times the call site can run per execution of its enclosing body,
// the product of the constant trip counts of the loops around it.
// Folding multiplicities over the graph from main bounds how often each
// callable runs, which in turn bounds how many allocations each `new`
// site can make (the pool pre-sizing hints).

import (
	"sort"

	"amplify/internal/cc"
)

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

// Edge is one interprocedural transfer: a call, method call, spawn,
// constructor (new) or destructor (delete) invocation.
type Edge struct {
	Callee string
	Pos    cc.Pos
	// Spawn marks a thread hand-off rather than a same-thread call.
	Spawn bool
	// Mult bounds how many times this site runs per execution of the
	// enclosing body (product of enclosing constant loop trip counts).
	Mult int64
}

// Node is one callable: a free function or a non-synthetic method.
type Node struct {
	Name   string // "f", "Cls::m", "Cls::Cls", "Cls::~Cls"
	Class  *cc.ClassDecl
	Method *cc.Method
	Fn     *cc.FuncDecl
	Body   *cc.Block
	Params []*cc.Param
	Edges  []Edge
	// env types the body's expressions; built once with the graph.
	env *typeEnv
	// Mult bounds how many times the callable runs per execution of
	// main: 0 when unreachable, Unbounded under recursion or inside
	// loops without static trip counts.
	Mult int64
}

// Graph is the program call graph.
type Graph struct {
	prog  *cc.Program
	Nodes map[string]*Node
	// Order lists node names in declaration order, for deterministic
	// iteration.
	Order []string
}

// methodNodeName names a method the way diagnostics do.
func methodNodeName(m *cc.Method) string {
	cls := m.Class.Name
	switch m.Kind {
	case cc.Ctor:
		return cls + "::" + cls
	case cc.Dtor:
		return cls + "::~" + cls
	case cc.OpNew:
		return cls + "::operator new"
	case cc.OpDelete:
		return cls + "::operator delete"
	}
	return cls + "::" + m.Name
}

// BuildGraph constructs the call graph of an analyzed program.
func BuildGraph(prog *cc.Program) *Graph {
	g := &Graph{prog: prog, Nodes: map[string]*Node{}}
	add := func(n *Node) {
		if _, ok := g.Nodes[n.Name]; ok {
			return
		}
		g.Nodes[n.Name] = n
		g.Order = append(g.Order, n.Name)
	}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *cc.ClassDecl:
			for _, m := range d.Methods {
				if m.Synthetic || m.Body == nil {
					continue
				}
				add(&Node{Name: methodNodeName(m), Class: d, Method: m, Body: m.Body, Params: m.Params})
			}
		case *cc.FuncDecl:
			if d.Body != nil {
				add(&Node{Name: d.Name, Fn: d, Body: d.Body, Params: d.Params})
			}
		}
	}
	for _, name := range g.Order {
		n := g.Nodes[name]
		n.env = newTypeEnv(g.prog, n)
		w := &edgeWalker{g: g, n: n}
		w.stmt(n.Body, 1)
		sort.SliceStable(n.Edges, func(i, j int) bool {
			a, b := n.Edges[i], n.Edges[j]
			if a.Pos.Line != b.Pos.Line {
				return a.Pos.Line < b.Pos.Line
			}
			if a.Pos.Col != b.Pos.Col {
				return a.Pos.Col < b.Pos.Col
			}
			return a.Callee < b.Callee
		})
	}
	g.computeMults()
	return g
}

// typeEnv resolves the static type of expressions inside one body: the
// declared types of params and locals (collected in a prepass; MiniCC
// bodies rarely shadow, and a name declared twice with different types
// degrades to unknown), plus field, call and new types.
type typeEnv struct {
	prog *cc.Program
	node *Node
	vars map[string]cc.Type
}

func newTypeEnv(prog *cc.Program, n *Node) *typeEnv {
	e := &typeEnv{prog: prog, node: n, vars: map[string]cc.Type{}}
	for _, p := range n.Params {
		e.vars[p.Name] = p.Type
	}
	walkStmt(n.Body, func(s cc.Stmt) {
		if vd, ok := s.(*cc.VarDecl); ok {
			if old, ok := e.vars[vd.Name]; ok && old != vd.Type {
				e.vars[vd.Name] = cc.Type{} // conflicting shadowed decls
			} else {
				e.vars[vd.Name] = vd.Type
			}
		}
	}, func(cc.Expr) {})
	return e
}

// typeOf computes the static type of e; the zero Type means unknown.
func (t *typeEnv) typeOf(e cc.Expr) cc.Type {
	switch e := e.(type) {
	case *cc.IntLit:
		return cc.Type{Name: "int"}
	case *cc.StrLit:
		return cc.Type{Name: "char", Stars: 1}
	case *cc.This:
		if t.node.Class != nil {
			return cc.Type{Name: t.node.Class.Name, Stars: 1}
		}
	case *cc.Ident:
		if e.Kind == cc.FieldIdent && e.Field != nil {
			return e.Field.Type
		}
		return t.vars[e.Name]
	case *cc.Paren:
		return t.typeOf(e.X)
	case *cc.AssignExpr:
		return t.typeOf(e.LHS)
	case *cc.Unary, *cc.Binary:
		return cc.Type{Name: "int"}
	case *cc.Call:
		if ret, ok := cc.Intrinsics[e.Func]; ok {
			return ret
		}
		if fd := t.prog.Funcs[e.Func]; fd != nil {
			return fd.Ret
		}
	case *cc.MethodCall:
		if cd := t.classOf(e.Recv); cd != nil {
			if m := cd.MethodByName(e.Name); m != nil {
				return m.Ret
			}
		}
	case *cc.FieldAccess:
		if e.Field != nil {
			return e.Field.Type
		}
	case *cc.Index:
		b := t.typeOf(e.X)
		if b.Stars > 0 {
			return cc.Type{Name: b.Name, Stars: b.Stars - 1}
		}
	case *cc.NewExpr:
		return cc.Type{Name: e.Class, Stars: 1}
	case *cc.NewArray:
		return cc.Type{Name: e.Elem.Name, Stars: 1}
	}
	return cc.Type{}
}

// classOf resolves the class a class-pointer expression points to.
func (t *typeEnv) classOf(e cc.Expr) *cc.ClassDecl {
	ty := t.typeOf(e)
	if ty.IsClassPointer(t.prog.Classes) {
		return t.prog.Classes[ty.Name]
	}
	return nil
}

// edgeWalker collects one body's outgoing edges, threading the loop
// multiplicity through nested statements.
type edgeWalker struct {
	g *Graph
	n *Node
}

func (w *edgeWalker) add(callee string, pos cc.Pos, spawn bool, mult int64) {
	if callee == "" {
		return
	}
	w.n.Edges = append(w.n.Edges, Edge{Callee: callee, Pos: pos, Spawn: spawn, Mult: mult})
}

func (w *edgeWalker) stmt(s cc.Stmt, mult int64) {
	switch s := s.(type) {
	case nil:
	case *cc.Block:
		for _, sub := range s.Stmts {
			w.stmt(sub, mult)
		}
	case *cc.VarDecl:
		w.expr(s.Init, mult)
	case *cc.ExprStmt:
		w.expr(s.X, mult)
	case *cc.If:
		w.expr(s.Cond, mult)
		w.stmt(s.Then, mult)
		w.stmt(s.Else, mult)
	case *cc.While:
		w.expr(s.Cond, Unbounded)
		w.stmt(s.Body, Unbounded)
	case *cc.For:
		w.stmt(s.Init, mult)
		inner := mulBound(mult, constTrips(s))
		w.expr(s.Cond, inner)
		w.expr(s.Post, inner)
		w.stmt(s.Body, inner)
	case *cc.Return:
		w.expr(s.X, mult)
	case *cc.DeleteStmt:
		w.expr(s.X, mult)
		if cd := w.n.env.classOf(s.X); cd != nil && !s.Array {
			if dt := cd.Dtor(); dt != nil && dt.Body != nil && !dt.Synthetic {
				w.add(methodNodeName(dt), s.Pos, false, mult)
			}
			if od := cd.OperatorDelete(); od != nil && od.Body != nil && !od.Synthetic {
				w.add(methodNodeName(od), s.Pos, false, mult)
			}
		}
	case *cc.Spawn:
		for _, a := range s.Args {
			w.expr(a, mult)
		}
		if w.g.prog.Funcs[s.Func] != nil {
			w.add(s.Func, s.Pos, true, mult)
		}
	case *cc.Join:
	}
}

func (w *edgeWalker) expr(e cc.Expr, mult int64) {
	switch e := e.(type) {
	case nil:
	case *cc.Paren:
		w.expr(e.X, mult)
	case *cc.Unary:
		w.expr(e.X, mult)
	case *cc.Binary:
		w.expr(e.X, mult)
		w.expr(e.Y, mult)
	case *cc.AssignExpr:
		w.expr(e.LHS, mult)
		w.expr(e.RHS, mult)
	case *cc.Call:
		for _, a := range e.Args {
			w.expr(a, mult)
		}
		if _, intrinsic := cc.Intrinsics[e.Func]; !intrinsic && w.g.prog.Funcs[e.Func] != nil {
			w.add(e.Func, e.Pos, false, mult)
		}
	case *cc.MethodCall:
		w.expr(e.Recv, mult)
		for _, a := range e.Args {
			w.expr(a, mult)
		}
		if cd := w.n.env.classOf(e.Recv); cd != nil {
			if m := cd.MethodByName(e.Name); m != nil && m.Body != nil && !m.Synthetic {
				w.add(methodNodeName(m), e.Pos, false, mult)
			}
		}
	case *cc.DtorCall:
		w.expr(e.Recv, mult)
		if cd := w.g.prog.Classes[e.Class]; cd != nil {
			if dt := cd.Dtor(); dt != nil && dt.Body != nil && !dt.Synthetic {
				w.add(methodNodeName(dt), e.Pos, false, mult)
			}
		}
	case *cc.FieldAccess:
		w.expr(e.Recv, mult)
	case *cc.Index:
		w.expr(e.X, mult)
		w.expr(e.I, mult)
	case *cc.NewExpr:
		w.expr(e.Placement, mult)
		for _, a := range e.Args {
			w.expr(a, mult)
		}
		if cd := w.g.prog.Classes[e.Class]; cd != nil {
			if ct := cd.Ctor(); ct != nil && ct.Body != nil && !ct.Synthetic {
				w.add(methodNodeName(ct), e.Pos, false, mult)
			}
			if on := cd.OperatorNew(); on != nil && on.Body != nil && !on.Synthetic {
				w.add(methodNodeName(on), e.Pos, false, mult)
			}
		}
	case *cc.NewArray:
		w.expr(e.Len, mult)
	}
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
// counted shape — `for (i = c0; i < c1; i = i + step)` with constant
// bounds, a positive constant step, and no other assignment to the
// induction variable — and returns Unbounded otherwise.
func constTrips(f *cc.For) int64 {
	var ivar string
	var start int64
	switch init := f.Init.(type) {
	case *cc.VarDecl:
		v, ok := intLit(init.Init)
		if !ok {
			return Unbounded
		}
		ivar, start = init.Name, v
	case *cc.ExprStmt:
		as, ok := init.X.(*cc.AssignExpr)
		if !ok {
			return Unbounded
		}
		id, ok := as.LHS.(*cc.Ident)
		if !ok {
			return Unbounded
		}
		v, ok := intLit(as.RHS)
		if !ok {
			return Unbounded
		}
		ivar, start = id.Name, v
	default:
		return Unbounded
	}
	cond, ok := f.Cond.(*cc.Binary)
	if !ok || (cond.Op != cc.Lt && cond.Op != cc.Le) {
		return Unbounded
	}
	cid, ok := cond.X.(*cc.Ident)
	if !ok || cid.Name != ivar {
		return Unbounded
	}
	limit, ok := intLit(cond.Y)
	if !ok {
		return Unbounded
	}
	post, ok := f.Post.(*cc.AssignExpr)
	if !ok {
		return Unbounded
	}
	pid, ok := post.LHS.(*cc.Ident)
	if !ok || pid.Name != ivar {
		return Unbounded
	}
	step, ok := incStep(post.RHS, ivar)
	if !ok || step <= 0 {
		return Unbounded
	}
	// The body must not touch the induction variable.
	clean := true
	walkStmt(f.Body, func(s cc.Stmt) {
		if vd, ok := s.(*cc.VarDecl); ok && vd.Name == ivar {
			clean = false
		}
	}, func(e cc.Expr) {
		if as, ok := e.(*cc.AssignExpr); ok {
			if id, ok := as.LHS.(*cc.Ident); ok && id.Name == ivar {
				clean = false
			}
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

// incStep matches `i + c` / `c + i` and returns c.
func incStep(e cc.Expr, ivar string) (int64, bool) {
	b, ok := e.(*cc.Binary)
	if !ok || b.Op != cc.Plus {
		return 0, false
	}
	if id, ok := b.X.(*cc.Ident); ok && id.Name == ivar {
		if v, ok := intLit(b.Y); ok {
			return v, true
		}
	}
	if id, ok := b.Y.(*cc.Ident); ok && id.Name == ivar {
		if v, ok := intLit(b.X); ok {
			return v, true
		}
	}
	return 0, false
}

// computeMults folds edge multiplicities over the graph from main:
// main runs once, a callee's bound is the sum over callers of
// caller-bound times site multiplicity, and any callable on or
// downstream of a cycle (recursion) is Unbounded. Unreachable
// callables stay at 0.
func (g *Graph) computeMults() {
	for _, n := range g.Nodes {
		n.Mult = 0
	}
	root := g.Nodes["main"]
	if root == nil {
		return
	}
	// Reachable subgraph.
	reach := map[string]bool{root.Name: true}
	stack := []string{root.Name}
	for len(stack) > 0 {
		n := g.Nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		for _, e := range n.Edges {
			if !reach[e.Callee] && g.Nodes[e.Callee] != nil {
				reach[e.Callee] = true
				stack = append(stack, e.Callee)
			}
		}
	}
	// Kahn's algorithm over the reachable subgraph; callables left with
	// positive in-degree sit on or below a cycle.
	indeg := map[string]int{}
	for name := range reach {
		for _, e := range g.Nodes[name].Edges {
			if reach[e.Callee] {
				indeg[e.Callee]++
			}
		}
	}
	root.Mult = 1
	queue := []string{}
	for name := range reach {
		if indeg[name] == 0 {
			queue = append(queue, name)
		}
	}
	sort.Strings(queue)
	done := map[string]bool{}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		done[name] = true
		n := g.Nodes[name]
		for _, e := range n.Edges {
			if !reach[e.Callee] {
				continue
			}
			callee := g.Nodes[e.Callee]
			callee.Mult = addBound(callee.Mult, mulBound(n.Mult, e.Mult))
			indeg[e.Callee]--
			if indeg[e.Callee] == 0 {
				queue = append(queue, e.Callee)
			}
		}
	}
	for name := range reach {
		if !done[name] {
			g.Nodes[name].Mult = Unbounded
		}
	}
}
