package vet

// Interprocedural escape and lifetime analysis. Where flow.go vetoes
// unsound classes, this layer drives optimization: it classifies every
// `new` site by how far the object can travel (non-escaping /
// thread-local / shared), bounds how many allocations each site can
// make, and hands the amplify rewriter three kinds of evidence —
// sites it may promote to the frame region, classes whose pools need
// no lock, and pool pre-sizing counts.
//
// The analysis is context-insensitive: one summary per callable, a
// fixpoint over the call graph. A summary records, for each parameter
// (and the receiver), whether the callee lets the value escape (stores
// it beyond the call), hands it to a spawned thread, deletes it, or
// returns it — all-false parameters are proven borrowing, which is
// what licenses stack promotion across calls. Within a body the walk
// is flow-insensitive over a may-hold origin set per local, which is
// conservative in exactly the safe direction: extra origins can only
// demote a site from promotable to pooled, never the reverse.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"amplify/internal/cc"
)

// EscapeClass classifies how far a `new` site's objects can travel.
type EscapeClass int

// Escape classes, ordered as a lattice (later = travels further).
const (
	// EscNone: every object made at the site dies in its creating
	// function — the stack/frame promotion candidates.
	EscNone EscapeClass = iota
	// EscThread: objects outlive the creating function but never cross
	// a spawn or shared-field boundary — lock-free pool candidates.
	EscThread
	// EscShared: objects may be reached from more than one thread.
	EscShared
)

// String names the class.
func (c EscapeClass) String() string {
	switch c {
	case EscNone:
		return "non-escaping"
	case EscThread:
		return "thread-local"
	}
	return "shared"
}

// Site is the verdict for one `new T(...)` site.
type Site struct {
	Func   string
	Class  string
	Pos    cc.Pos
	Escape EscapeClass
	// Bound is the static upper bound on allocations the site performs
	// per program run, or Unbounded.
	Bound int64
	// Promote marks sites the rewriter may move to the frame region;
	// Local is the dedicated local the object lives in.
	Promote bool
	Local   string
	// Reason explains why a site was not promoted (the V009 text).
	Reason string
}

// ClassBound is a pool pre-sizing hint: a static upper bound on the
// pooled allocations of one class.
type ClassBound struct {
	Class string `json:"class"`
	Count int64  `json:"count"`
}

// EscapeReport is the whole-program escape/lifetime analysis result.
type EscapeReport struct {
	Sites []Site
	// ThreadLocal and Shared partition the program's classes by whether
	// any instance can cross a spawn/shared-field boundary.
	ThreadLocal []string
	Shared      []string
	// Presize lists classes with a useful static allocation bound.
	Presize []ClassBound
	// Diags carries V008 (interprocedural leak) and V009 (escape-blocked
	// promotion, info) findings.
	Diags []Diag

	promote        map[*cc.NewExpr]string
	promoteDeletes map[*cc.DeleteStmt]string
	threadLocal    map[string]bool
}

// PromoteSite reports whether the rewriter may frame-promote this new
// expression, and the class it allocates.
func (r *EscapeReport) PromoteSite(e *cc.NewExpr) (string, bool) {
	c, ok := r.promote[e]
	return c, ok
}

// PromoteDelete reports whether this delete statement frees a promoted
// site's object, and the class involved.
func (r *EscapeReport) PromoteDelete(d *cc.DeleteStmt) (string, bool) {
	c, ok := r.promoteDeletes[d]
	return c, ok
}

// IsThreadLocal reports whether no instance of the class crosses a
// thread boundary.
func (r *EscapeReport) IsThreadLocal(class string) bool { return r.threadLocal[class] }

// pfacts summarizes what a callee may do with one incoming pointer.
type pfacts struct {
	escapes bool // stored beyond the call (field, buffer, escaping callee)
	spawns  bool // handed to a spawned thread
	deletes bool // deleted on some path
	returns bool // returned to the caller
}

func (f pfacts) any() bool { return f.escapes || f.spawns || f.deletes || f.returns }

// or unions src into dst, reporting change.
func (f *pfacts) or(src pfacts) bool {
	changed := false
	if src.escapes && !f.escapes {
		f.escapes, changed = true, true
	}
	if src.spawns && !f.spawns {
		f.spawns, changed = true, true
	}
	if src.deletes && !f.deletes {
		f.deletes, changed = true, true
	}
	if src.returns && !f.returns {
		f.returns, changed = true, true
	}
	return changed
}

// summary is one callable's interprocedural behavior.
type summary struct {
	params []pfacts
	recv   pfacts
	// returnsFresh: the callable returns ownership of an allocation it
	// (or a callee) made — callers who drop the result leak (V008).
	returnsFresh bool
}

// oset is the may-hold origin set of an expression or local: which
// parameters, receiver, fresh sites and fresh-returning call results
// the value may be.
type oset struct {
	params uint64
	recv   bool
	sites  map[*cc.NewExpr]bool
	tokens map[cc.Expr]bool // *cc.Call / *cc.MethodCall with fresh results
}

func (o *oset) addSite(e *cc.NewExpr) {
	if o.sites == nil {
		o.sites = map[*cc.NewExpr]bool{}
	}
	o.sites[e] = true
}

func (o *oset) addToken(e cc.Expr) {
	if o.tokens == nil {
		o.tokens = map[cc.Expr]bool{}
	}
	o.tokens[e] = true
}

// reset empties o, keeping its tables for reuse.
func (o *oset) reset() {
	o.params, o.recv = 0, false
	clear(o.sites)
	clear(o.tokens)
}

// union merges src into o, reporting change.
func (o *oset) union(src oset) bool {
	changed := false
	if src.params&^o.params != 0 {
		o.params |= src.params
		changed = true
	}
	if src.recv && !o.recv {
		o.recv, changed = true, true
	}
	for s := range src.sites {
		if !o.sites[s] {
			o.addSite(s)
			changed = true
		}
	}
	for t := range src.tokens {
		if !o.tokens[t] {
			o.addToken(t)
			changed = true
		}
	}
	return changed
}

// siteFact accumulates per-site evidence during a sweep.
type siteFact struct {
	node  *node
	expr  *cc.NewExpr
	class string
	pos   cc.Pos
	mult  int64 // loop multiplicity within the body

	escapes   bool
	spawns    bool
	escReason string // first escape route, for V009

	deletedDirect bool // `delete p` on the dedicated local
	deletedVia    bool // deleted through an alias or callee
	blocked       string
	// local names the dedicated local the site initializes, "" for
	// none, and slot is its frame slot.
	local   string
	slot    int
	deletes map[*cc.DeleteStmt]bool
}

func (f *siteFact) escape(prefix string, to route) {
	if !f.escapes {
		f.escapes = true
		f.escReason = to.text(prefix, "")
	}
}

// route names where a value goes — kind, then name, then tail — for
// the reason texts, which are built only when a site keeps one.
type route struct{ kind, name, tail string }

func (r route) text(prefix, suffix string) string {
	return prefix + r.kind + r.name + r.tail + suffix
}

func (f *siteFact) block(reason string) {
	if f.blocked == "" {
		f.blocked = reason
	}
}

// tokenFact tracks one fresh-returning call result for V008.
type tokenFact struct {
	pos      cc.Pos
	callee   string
	node     *node
	consumed bool
}

// escAnalysis runs the whole-program analysis.
type escAnalysis struct {
	prog *cc.Program
	// nodes are the callables in declaration order; funcs and methods
	// map the declarations sema binds calls to onto them.
	nodes   []*node
	funcs   map[*cc.FuncDecl]*node
	methods map[*cc.Method]*node

	// Evidence recorded by the last sweep.
	facts       map[*cc.NewExpr]*siteFact
	order       []*cc.NewExpr
	tokens      map[cc.Expr]*tokenFact
	tokenOrder  []cc.Expr
	sharedSeeds map[string]bool
}

// escapeKey is the cc.Program memo key of the escape analysis.
type escapeKey struct{}

// analyze returns the escape analysis of an analyzed program, running
// it once per analyzed tree: Check and Escape on the same tree share
// one run through the program's memo (cc.Program.Memo).
func analyze(prog *cc.Program) *escAnalysis {
	return prog.Memo(escapeKey{}, func() any { return runEscape(prog) }).(*escAnalysis)
}

// runEscape performs the analysis on an analyzed program: one node per
// function and non-synthetic method, the summary fixpoint over them,
// then the bounds over the call graph the first sweep recorded.
func runEscape(prog *cc.Program) *escAnalysis {
	an := &escAnalysis{prog: prog, funcs: map[*cc.FuncDecl]*node{}, methods: map[*cc.Method]*node{}}
	add := func(name string, body *cc.Block, params []*cc.Param, slots int) *node {
		n := &node{name: name, body: body, params: params, slots: slots,
			sum: summary{params: make([]pfacts, len(params))}}
		an.nodes = append(an.nodes, n)
		return n
	}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *cc.ClassDecl:
			for _, m := range d.Methods {
				if !m.Synthetic && m.Body != nil {
					an.methods[m] = add(m.FullName(), m.Body, m.Params, m.Slots)
				}
			}
		case *cc.FuncDecl:
			if d.Body != nil {
				an.funcs[d] = add(d.Name, d.Body, d.Params, d.Slots)
			}
		}
	}
	// Global summary fixpoint: monotone boolean facts over a finite
	// lattice, so the loop terminates. Every sweep records site and
	// leak evidence into tables emptied for it. Summary updates do not
	// depend on that evidence, and the first sweep that changes nothing
	// saw the final summaries throughout, so its evidence is the result.
	an.facts, an.tokens = map[*cc.NewExpr]*siteFact{}, map[cc.Expr]*tokenFact{}
	an.sharedSeeds = map[string]bool{}
	for changed := true; changed; {
		changed = false
		clear(an.facts)
		clear(an.tokens)
		clear(an.sharedSeeds)
		an.order, an.tokenOrder = an.order[:0], an.tokenOrder[:0]
		for _, n := range an.nodes {
			if an.runBody(n) {
				changed = true
			}
		}
	}
	computeMults(an.nodes, an.funcs[prog.Funcs["main"]])
	return an
}

// bodyPass walks one body flow-insensitively, accumulating origin sets
// per local until they stabilize. A node keeps one pass for every
// sweep; its tables are indexed by frame slot. The node's first walk
// also records its call edges, which every later walk would repeat.
type bodyPass struct {
	an         *escAnalysis
	n          *node
	changed    bool
	sumChanged bool
	record     bool

	// locals are the origin sets of the locals the walk has assigned
	// (held), nheld how many there are; assigned marks the locals an
	// assignment targets.
	locals   []oset
	held     []bool
	nheld    int
	assigned []bool
}

func (an *escAnalysis) runBody(n *node) bool {
	p := n.pass
	if p == nil {
		k := n.slots
		p = &bodyPass{an: an, n: n, record: true, locals: make([]oset, k), held: make([]bool, k),
			assigned: make([]bool, k)}
		n.pass = p
	}
	p.changed, p.sumChanged, p.nheld = false, false, 0
	for i := range p.locals {
		p.locals[i].reset()
	}
	clear(p.held)
	clear(p.assigned)
	// Inner fixpoint: origins of locals feed later (and earlier) uses.
	for pass := 0; pass < p.nheld+8; pass++ {
		p.changed = false
		p.stmt(n.body, 1)
		p.record = false
		if !p.changed {
			break
		}
	}
	return p.changed || p.sumChanged
}

// edge records a call of callee, nil for a callable without a node,
// from a site that runs mult times per execution of the body.
func (p *bodyPass) edge(callee *node, mult int64) {
	if p.record && callee != nil {
		p.n.edges = append(p.n.edges, edge{callee, mult})
	}
}

func (p *bodyPass) localSet(slot int) *oset {
	if !p.held[slot] {
		p.held[slot] = true
		p.nheld++
	}
	return &p.locals[slot]
}

// slotOrigins computes the may-hold set of the local in slot i. The
// parameters hold the first slots, so a parameter's slot is also its
// position.
func (p *bodyPass) slotOrigins(i int) oset {
	var o oset
	if i < len(p.n.params) && i < 64 {
		o.params |= 1 << uint(i)
	}
	if p.held[i] {
		o.union(p.locals[i])
	}
	return o
}

func (p *bodyPass) markParams(o oset, f pfacts) {
	for i := range p.n.sum.params {
		if o.params&(1<<uint(i)) != 0 {
			if p.n.sum.params[i].or(f) {
				p.sumChangedSet()
			}
		}
	}
	if o.recv {
		if p.n.sum.recv.or(f) {
			p.sumChangedSet()
		}
	}
}

func (p *bodyPass) fact(e *cc.NewExpr) *siteFact {
	f := p.an.facts[e]
	if f == nil {
		f = &siteFact{node: p.n, expr: e, class: e.Class, pos: e.Pos, mult: 1}
		p.an.facts[e] = f
		p.an.order = append(p.an.order, e)
	}
	return f
}

// escapeVal records that a value escapes the body (field store,
// escaping callee, return handled separately); a site's reason is
// prefix followed by the route.
func (p *bodyPass) escapeVal(o oset, prefix string, to route) {
	p.markParams(o, pfacts{escapes: true})
	for s := range o.sites {
		p.fact(s).escape(prefix, to)
	}
	p.consume(o)
}

// spawnVal records that a value is handed to another thread.
func (p *bodyPass) spawnVal(o oset) {
	p.markParams(o, pfacts{escapes: true, spawns: true})
	for s := range o.sites {
		f := p.fact(s)
		f.spawns = true
		f.escape("handed to a spawned thread", route{})
	}
	p.consume(o)
}

// deleteVal records that a value is deleted (directly or via callee).
func (p *bodyPass) deleteVal(o oset, direct *cc.DeleteStmt, x cc.Expr) {
	p.markParams(o, pfacts{deletes: true})
	for s := range o.sites {
		f := p.fact(s)
		if direct != nil {
			if id, ok := stripParens(x).(*cc.Ident); ok && f.local != "" && id.Kind == cc.LocalIdent && id.Slot == f.slot {
				f.deletedDirect = true
				if f.deletes == nil {
					f.deletes = map[*cc.DeleteStmt]bool{}
				}
				f.deletes[direct] = true
				continue
			}
			f.deletedVia = true
			f.block("deleted through an alias rather than its own local")
			continue
		}
		f.deletedVia = true
		f.block("deleted by a callee")
	}
	p.consume(o)
}

// consume marks fresh-returning call results as owned by someone.
func (p *bodyPass) consume(o oset) {
	for t := range o.tokens {
		if tf := p.an.tokens[t]; tf != nil {
			tf.consumed = true
		}
	}
}

func (p *bodyPass) sumChangedSet() { p.sumChanged = true }

func stripParens(e cc.Expr) cc.Expr {
	for {
		pe, ok := e.(*cc.Paren)
		if !ok {
			return e
		}
		e = pe.X
	}
}

func (p *bodyPass) stmt(s cc.Stmt, mult int64) {
	switch s := s.(type) {
	case nil:
	case *cc.Block:
		for _, sub := range s.Stmts {
			p.stmt(sub, mult)
		}
	case *cc.VarDecl:
		if s.Init == nil {
			return
		}
		rv := p.expr(s.Init, mult)
		if p.localSet(s.Slot).union(rv) {
			p.changed = true
		}
		if ne, ok := stripParens(s.Init).(*cc.NewExpr); ok && ne.Placement == nil {
			if f := p.an.facts[ne]; f != nil && f.local == "" {
				f.local, f.slot = s.Name, s.Slot
			}
		}
	case *cc.ExprStmt:
		p.expr(s.X, mult)
	case *cc.If:
		p.expr(s.Cond, mult)
		p.stmt(s.Then, mult)
		p.stmt(s.Else, mult)
	case *cc.While:
		p.expr(s.Cond, Unbounded)
		p.stmt(s.Body, Unbounded)
	case *cc.For:
		p.stmt(s.Init, mult)
		inner := mulBound(mult, constTrips(s))
		if s.Cond != nil {
			p.expr(s.Cond, inner)
		}
		if s.Post != nil {
			p.expr(s.Post, inner)
		}
		p.stmt(s.Body, inner)
	case *cc.Return:
		if s.X == nil {
			return
		}
		rv := p.expr(s.X, mult)
		p.markParams(rv, pfacts{returns: true})
		if len(rv.sites) > 0 || len(rv.tokens) > 0 {
			if !p.n.sum.returnsFresh {
				p.n.sum.returnsFresh = true
				p.sumChangedSet()
			}
		}
		for site := range rv.sites {
			p.fact(site).escape("returned to the caller", route{})
		}
		p.consume(rv)
	case *cc.DeleteStmt:
		rv := p.expr(s.X, mult)
		p.deleteVal(rv, s, s.X)
		if cd := s.Class; cd != nil && !s.Array {
			p.edge(p.an.methods[cd.Dtor()], mult)
			p.edge(p.an.methods[cd.OperatorDelete()], mult)
		}
	case *cc.Spawn:
		for i, a := range s.Args {
			av := p.expr(a, mult)
			p.spawnVal(av)
			if t := s.ArgTypes[i]; t.IsClassPointer(p.an.prog.Classes) {
				p.an.sharedSeeds[t.Name] = true
			}
		}
		p.edge(p.an.funcs[p.an.prog.Funcs[s.Func]], mult)
	case *cc.Join:
	}
}

// callFacts applies one callee parameter's facts to an argument value.
func (p *bodyPass) callFacts(f pfacts, av oset, what route) {
	if f.escapes && !f.spawns {
		p.escapeVal(av, "escapes through ", what)
	}
	if f.spawns {
		p.spawnVal(av)
	}
	if f.deletes {
		p.deleteVal(av, nil, nil)
	}
	if f.returns {
		for s := range av.sites {
			p.fact(s).block(what.text("may alias out through ", "'s return value"))
		}
	}
}

func (p *bodyPass) expr(e cc.Expr, mult int64) oset {
	switch e := e.(type) {
	case nil:
		return oset{}
	case *cc.IntLit, *cc.StrLit, *cc.NullLit:
		return oset{}
	case *cc.This:
		return oset{recv: true}
	case *cc.Ident:
		if e.Kind != cc.LocalIdent {
			return oset{}
		}
		return p.slotOrigins(e.Slot)
	case *cc.Paren:
		return p.expr(e.X, mult)
	case *cc.Unary:
		p.expr(e.X, mult)
		return oset{}
	case *cc.Binary:
		p.expr(e.X, mult)
		p.expr(e.Y, mult)
		return oset{}
	case *cc.AssignExpr:
		rv := p.expr(e.RHS, mult)
		p.assignTo(e.LHS, rv, mult)
		return rv
	case *cc.Call:
		return p.call(e, mult)
	case *cc.MethodCall:
		return p.methodCall(e, mult)
	case *cc.DtorCall:
		p.expr(e.Recv, mult)
		if cd := p.an.prog.Classes[e.Class]; cd != nil {
			p.edge(p.an.methods[cd.Dtor()], mult)
		}
		return oset{}
	case *cc.FieldAccess:
		p.expr(e.Recv, mult)
		return oset{}
	case *cc.Index:
		p.expr(e.X, mult)
		p.expr(e.I, mult)
		return oset{}
	case *cc.NewExpr:
		if e.Placement != nil {
			// Placement new constructs into existing storage: the result
			// is the placement value, not a fresh allocation.
			pl := p.expr(e.Placement, mult)
			p.ctorArgs(e, mult)
			return pl
		}
		p.fact(e).mult = mult
		p.ctorArgs(e, mult)
		var o oset
		o.addSite(e)
		return o
	case *cc.NewArray:
		p.expr(e.Len, mult)
		return oset{}
	}
	return oset{}
}

// ctorArgs applies the constructor summary to new-expression arguments
// and records the constructor and operator new calls.
func (p *bodyPass) ctorArgs(e *cc.NewExpr, mult int64) {
	cd := p.an.prog.Classes[e.Class]
	ctor := p.an.methods[cd.Ctor()]
	p.edge(ctor, mult)
	p.edge(p.an.methods[cd.OperatorNew()], mult)
	for j, a := range e.Args {
		av := p.expr(a, mult)
		switch {
		case ctor != nil && j < len(ctor.sum.params):
			p.callFacts(ctor.sum.params[j], av, route{"constructor of ", e.Class, ""})
		default:
			p.escapeVal(av, "", route{"constructor of ", e.Class, ""})
		}
	}
}

func (p *bodyPass) assignTo(lhs cc.Expr, rv oset, mult int64) {
	switch l := lhs.(type) {
	case *cc.Paren:
		p.assignTo(l.X, rv, mult)
	case *cc.Ident:
		if l.Kind == cc.FieldIdent {
			p.escapeVal(rv, "", route{"a store into field ", l.Name, ""})
			return
		}
		if p.localSet(l.Slot).union(rv) {
			p.changed = true
		}
		p.assigned[l.Slot] = true
	case *cc.FieldAccess:
		p.expr(l.Recv, mult)
		p.escapeVal(rv, "", route{"a store into field ", l.Name, ""})
	case *cc.Index:
		p.expr(l.X, mult)
		p.expr(l.I, mult)
		p.escapeVal(rv, "a store into a buffer", route{})
	default:
		p.escapeVal(rv, "an assignment", route{})
	}
}

func (p *bodyPass) call(e *cc.Call, mult int64) oset {
	if _, intrinsic := cc.Intrinsics[e.Func]; intrinsic {
		for _, a := range e.Args {
			p.expr(a, mult)
		}
		return oset{}
	}
	callee := p.an.funcs[p.an.prog.Funcs[e.Func]]
	p.edge(callee, mult)
	var sum *summary
	if callee != nil {
		sum = &callee.sum
	}
	var out oset
	for j, a := range e.Args {
		av := p.expr(a, mult)
		switch {
		case sum != nil && j < len(sum.params):
			p.callFacts(sum.params[j], av, route{"function ", e.Func, ""})
			if sum.params[j].returns {
				out.union(av)
			}
		default:
			// Unknown callee: assume the worst that stays silent.
			p.escapeVal(av, "", route{"function ", e.Func, ""})
		}
	}
	if sum != nil && sum.returnsFresh {
		out.addToken(e)
		if p.an.tokens[e] == nil {
			p.an.tokens[e] = &tokenFact{pos: e.Pos, callee: e.Func, node: p.n}
			p.an.tokenOrder = append(p.an.tokenOrder, e)
		}
	}
	return out
}

func (p *bodyPass) methodCall(e *cc.MethodCall, mult int64) oset {
	rv := p.expr(e.Recv, mult)
	callee := p.an.methods[e.Method]
	p.edge(callee, mult)
	var sum *summary
	if callee != nil {
		sum = &callee.sum
	}
	var out oset
	if sum != nil {
		p.callFacts(sum.recv, rv, route{"method ", e.Name, "'s receiver"})
		if sum.recv.returns {
			out.union(rv)
		}
	} else {
		p.escapeVal(rv, "", route{"method call ", e.Name, ""})
	}
	for j, a := range e.Args {
		av := p.expr(a, mult)
		switch {
		case sum != nil && j < len(sum.params):
			p.callFacts(sum.params[j], av, route{"method ", e.Name, ""})
			if sum.params[j].returns {
				out.union(av)
			}
		default:
			p.escapeVal(av, "", route{"method ", e.Name, ""})
		}
	}
	if sum != nil && sum.returnsFresh {
		out.addToken(e)
		if p.an.tokens[e] == nil {
			p.an.tokens[e] = &tokenFact{pos: e.Pos, callee: callee.name, node: p.n}
			p.an.tokenOrder = append(p.an.tokenOrder, e)
		}
	}
	return out
}

// sharedClasses closes the spawn-seed set over class-pointer fields:
// anything reachable from an object that crossed a thread boundary is
// itself shared.
func (an *escAnalysis) sharedClasses() map[string]bool {
	shared := map[string]bool{}
	for c := range an.sharedSeeds {
		shared[c] = true
	}
	for changed := true; changed; {
		changed = false
		for c := range shared {
			cd := an.prog.Classes[c]
			if cd == nil {
				continue
			}
			for _, f := range cd.Fields {
				if f.Type.IsClassPointer(an.prog.Classes) && !shared[f.Type.Name] {
					shared[f.Type.Name] = true
					changed = true
				}
			}
		}
	}
	return shared
}

// leakDiags builds the V008 findings: fresh-returning call results that
// the caller neither deletes, returns, stores nor forwards.
func (an *escAnalysis) leakDiags() []Diag {
	var out []Diag
	for _, t := range an.tokenOrder {
		tf := an.tokens[t]
		if tf.consumed {
			continue
		}
		out = append(out, Diag{
			Code: CodeInterprocLeak, Severity: codeSeverity[CodeInterprocLeak],
			Pos: tf.pos, Func: tf.node.name,
			Msg: fmt.Sprintf("%s returns a fresh allocation that %s never deletes, returns or stores (interprocedural leak)", tf.callee, tf.node.name),
		})
	}
	return out
}

// Escape runs the interprocedural analysis, or reuses the run Check
// made on the same analyzed tree, and assembles the report. Like
// Check, it panics on a tree cc.Analyze never ran on.
func Escape(prog *cc.Program) *EscapeReport {
	mustBeAnalyzed(prog, "Escape")
	an := analyze(prog)
	shared := an.sharedClasses()
	r := &EscapeReport{
		promote:        map[*cc.NewExpr]string{},
		promoteDeletes: map[*cc.DeleteStmt]string{},
		threadLocal:    map[string]bool{},
	}

	// Class partition.
	var classNames []string
	for name := range prog.Classes {
		classNames = append(classNames, name)
	}
	sort.Strings(classNames)
	for _, name := range classNames {
		if shared[name] {
			r.Shared = append(r.Shared, name)
		} else {
			r.ThreadLocal = append(r.ThreadLocal, name)
			r.threadLocal[name] = true
		}
	}

	// Site verdicts, in deterministic (body, syntactic) order.
	for _, e := range an.order {
		f := an.facts[e]
		site := Site{
			Func:  f.node.name,
			Class: f.class,
			Pos:   f.pos,
			Bound: mulBound(f.node.mult, f.mult),
		}
		switch {
		case f.spawns || shared[f.class]:
			site.Escape = EscShared
		case f.escapes:
			site.Escape = EscThread
		default:
			site.Escape = EscNone
		}
		pass := f.node.pass
		switch {
		case site.Escape == EscShared && f.spawns:
			site.Reason = "object is handed to a spawned thread"
		case site.Escape == EscShared:
			site.Reason = fmt.Sprintf("class %s is reachable from a spawn boundary", f.class)
		case site.Escape == EscThread:
			site.Reason = "object " + f.escReason
		case f.blocked != "":
			site.Reason = f.blocked
		case f.local == "":
			site.Reason = "allocation is not bound to a dedicated local"
		case pass != nil && pass.assigned[f.slot]:
			site.Reason = fmt.Sprintf("local %s is reassigned or redeclared", f.local)
		case aliasedElsewhere(pass, e, f.slot):
			site.Reason = fmt.Sprintf("value of local %s aliases another local", f.local)
		case !f.deletedDirect:
			site.Reason = "no matching delete in the creating function"
		default:
			site.Promote = true
			site.Local = f.local
			r.promote[e] = f.class
			for d := range f.deletes {
				r.promoteDeletes[d] = f.class
			}
		}
		if !site.Promote {
			r.Diags = append(r.Diags, Diag{
				Code: CodeEscapeBlocked, Severity: codeSeverity[CodeEscapeBlocked],
				Pos: f.pos, Class: f.class, Func: f.node.name,
				Msg: fmt.Sprintf("new %s in %s is not frame-promoted: %s", f.class, f.node.name, site.Reason),
			})
		}
		r.Sites = append(r.Sites, site)
	}
	slices.SortStableFunc(r.Sites, func(a, b Site) int {
		if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Col, b.Pos.Col); c != 0 {
			return c
		}
		return strings.Compare(a.Func, b.Func)
	})

	// Pre-sizing: total finite allocation bound of pooled (non-promoted)
	// sites, per class, clamped to a useful range.
	const presizeMin, presizeCap = 8, 4096
	presize := map[string]int64{}
	for _, e := range an.order {
		f := an.facts[e]
		if _, promoted := r.promote[e]; promoted {
			continue
		}
		b := mulBound(f.node.mult, f.mult)
		if b == Unbounded || b <= 0 {
			continue
		}
		presize[f.class] = addBound(presize[f.class], b)
	}
	for _, name := range classNames {
		n := presize[name]
		if n < presizeMin {
			continue
		}
		if n > presizeCap || n == Unbounded {
			n = presizeCap
		}
		r.Presize = append(r.Presize, ClassBound{Class: name, Count: n})
	}

	// V008 leaks, then a stable diagnostic order.
	r.Diags = append(r.Diags, an.leakDiags()...)
	sortDiags(r.Diags)
	return r
}

// aliasedElsewhere reports whether a promotion candidate's value may
// also live in a local other than its dedicated binding, in slot self.
func aliasedElsewhere(p *bodyPass, e *cc.NewExpr, self int) bool {
	if p == nil {
		return false
	}
	for i, o := range p.locals {
		if i != self && p.held[i] && o.sites[e] {
			return true
		}
	}
	return false
}

// String renders the report as an aligned, deterministic text summary.
func (r *EscapeReport) String() string {
	var b strings.Builder
	promoted, tl, sh := 0, 0, 0
	for _, s := range r.Sites {
		switch {
		case s.Promote:
			promoted++
		case s.Escape == EscShared:
			sh++
		case s.Escape == EscThread:
			tl++
		}
	}
	fmt.Fprintf(&b, "escape analysis: %d new sites (%d frame-promoted, %d shared)\n", len(r.Sites), promoted, sh)
	for _, s := range r.Sites {
		bound := "unbounded"
		if s.Bound != Unbounded {
			bound = fmt.Sprintf("%d", s.Bound)
		}
		fmt.Fprintf(&b, "  %d:%d new %s in %s: %s, bound %s", s.Pos.Line, s.Pos.Col, s.Class, s.Func, s.Escape, bound)
		if s.Promote {
			fmt.Fprintf(&b, ", promoted via local %s", s.Local)
		} else {
			fmt.Fprintf(&b, " (%s)", s.Reason)
		}
		b.WriteByte('\n')
	}
	if len(r.ThreadLocal) > 0 {
		fmt.Fprintf(&b, "thread-local classes: %s\n", strings.Join(r.ThreadLocal, ", "))
	}
	if len(r.Shared) > 0 {
		fmt.Fprintf(&b, "shared classes: %s\n", strings.Join(r.Shared, ", "))
	}
	for _, pb := range r.Presize {
		fmt.Fprintf(&b, "pool pre-size hint: %s = %d\n", pb.Class, pb.Count)
	}
	for _, d := range r.Diags {
		if d.Code != CodeEscapeBlocked { // V009 detail already shown per site
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// JSON renders the report for CI artifact diffing; output is
// byte-deterministic for a given program.
func (r *EscapeReport) JSON(file string) ([]byte, error) {
	type jsite struct {
		Func    string `json:"func"`
		Class   string `json:"class"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Escape  string `json:"escape"`
		Bound   int64  `json:"bound"`
		Promote bool   `json:"promote"`
		Local   string `json:"local,omitempty"`
		Reason  string `json:"reason,omitempty"`
	}
	type jdiag struct {
		Code     string `json:"code"`
		Severity string `json:"severity"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Class    string `json:"class,omitempty"`
		Func     string `json:"func,omitempty"`
		Msg      string `json:"msg"`
	}
	out := struct {
		File        string       `json:"file"`
		Sites       []jsite      `json:"sites"`
		ThreadLocal []string     `json:"threadLocal"`
		Shared      []string     `json:"shared"`
		Presize     []ClassBound `json:"presize"`
		Diags       []jdiag      `json:"diags"`
	}{
		File:        file,
		Sites:       []jsite{},
		ThreadLocal: append([]string{}, r.ThreadLocal...),
		Shared:      append([]string{}, r.Shared...),
		Presize:     append([]ClassBound{}, r.Presize...),
		Diags:       []jdiag{},
	}
	for _, s := range r.Sites {
		out.Sites = append(out.Sites, jsite{
			Func: s.Func, Class: s.Class, Line: s.Pos.Line, Col: s.Pos.Col,
			Escape: s.Escape.String(), Bound: s.Bound,
			Promote: s.Promote, Local: s.Local, Reason: s.Reason,
		})
	}
	for _, d := range r.Diags {
		out.Diags = append(out.Diags, jdiag{
			Code: d.Code, Severity: d.Severity.String(),
			Line: d.Pos.Line, Col: d.Pos.Col,
			Class: d.Class, Func: d.Func, Msg: d.Msg,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}
