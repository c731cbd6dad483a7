package vet

import (
	"fmt"

	"amplify/internal/cc"
)

// pmask is the abstract state of one pointer-typed location as a
// powerset: a location may be in several states at a merge point, and
// the join of two paths is the bit union. The lattice is finite and
// merges only add bits, so the worklist fixpoint terminates; diagnostic
// predicates test bit presence and are therefore monotone, which lets
// the analysis emit (deduplicated) diagnostics during the fixpoint.
type pmask uint8

const (
	stUninit  pmask = 1 << iota // never assigned
	stNull                      // assigned null
	stFresh                     // holds an allocation made in this body
	stUnknown                   // parameter, call result, pre-existing value
	stDeleted                   // delete ran; not reassigned since
)

func (m pmask) has(bit pmask) bool  { return m&bit != 0 }
func (m pmask) only(bit pmask) bool { return m == bit }

// astate is the abstract state at one program point, in slices indexed
// per body: the masks of the enclosing class's tracked pointer fields
// by field position, and one entry per local by the frame slot sema
// gave its declaration (only pointer locals ever get a non-zero mask).
type astate struct {
	fields []pmask
	locals []local
}

// local is one pointer local's part of an astate. A zero mask means no
// path to the point declares the local (every assigned mask is
// non-zero).
type local struct {
	m pmask
	// alias records, for the alias-delete check, which field the
	// local's value was copied from: aliasUnset until the local is
	// assigned (parameters start so), aliasNone for a value that is no
	// field's, or 1 + the field's index. aliasNone is also the
	// tombstone of a local that held different fields on different
	// paths, so no single alias is claimed (tombstones are never
	// resurrected by merge, keeping the merge monotone).
	alias int32
	// spawn is the spawn statement the local was handed to, while no
	// join separates them: deleting it then is a cross-thread
	// use-after-delete hazard (V007).
	spawn *cc.Spawn
}

const (
	aliasUnset int32 = 0
	aliasNone  int32 = -1
)

// field returns the index of the field the local aliases, or -1.
func (l local) field() int {
	if l.alias > 0 {
		return int(l.alias - 1)
	}
	return -1
}

// copyFrom overwrites s with src; both belong to the same body.
func (s astate) copyFrom(src astate) {
	copy(s.fields, src.fields)
	copy(s.locals, src.locals)
}

// merge unions src into dst and reports whether dst changed.
func merge(dst, src astate) bool {
	changed := false
	for i, v := range src.fields {
		if dst.fields[i]|v != dst.fields[i] {
			dst.fields[i] |= v
			changed = true
		}
	}
	for i, sl := range src.locals {
		dl := &dst.locals[i]
		if dl.m|sl.m != dl.m {
			dl.m |= sl.m
			changed = true
		}
		switch {
		case sl.alias == aliasUnset:
		case dl.alias == aliasUnset:
			dl.alias = sl.alias
			changed = true
		case dl.alias != sl.alias && dl.alias != aliasNone:
			dl.alias = aliasNone // conflicting aliases: tombstone
			changed = true
		}
		if sl.spawn != nil && dl.spawn == nil {
			dl.spawn = sl.spawn
			changed = true
		}
	}
	return changed
}

// aval is the abstract value of an expression.
type aval struct {
	m pmask
	// field is the index of the own-class tracked field whose current
	// value this is (directly, or through a local alias), or -1.
	field int
	// local is the slot of the pointer local whose current value this
	// is, or -1.
	local int
	// fromNew marks a fresh allocation made by this very expression.
	fromNew bool
}

// opaque is a value that is no field's or local's.
func opaque(m pmask) aval { return aval{m: m, field: -1, local: -1} }

// funcCtx identifies the body under analysis.
type funcCtx struct {
	class  *cc.ClassDecl // nil in free functions
	method *cc.Method
	fn     *cc.FuncDecl
}

func (c funcCtx) isCtor() bool { return c.method != nil && c.method.Kind == cc.Ctor }

// slots is the body's frame-slot count.
func (c funcCtx) slots() int {
	if c.fn != nil {
		return c.fn.Slots
	}
	return c.method.Slots
}

func (c funcCtx) className() string {
	if c.class == nil {
		return ""
	}
	return c.class.Name
}

func (c funcCtx) name() string {
	if c.fn != nil {
		return c.fn.Name
	}
	return c.method.FullName()
}

// checker accumulates diagnostics across a whole program.
type checker struct {
	prog  *cc.Program
	diags []Diag
	seen  map[diagKey]bool
	// flow is reused by every body's dataflow.
	flow fa
}

// diagKey identifies a diagnostic for deduplication.
type diagKey struct {
	code      string
	line, col int
	field     string
	msg       string
}

// emit records a diagnostic once per (code, position, field, message).
func (c *checker) emit(code string, pos cc.Pos, class, fn, field, msg string) {
	key := diagKey{code, pos.Line, pos.Col, field, msg}
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.diags = append(c.diags, Diag{
		Code: code, Severity: codeSeverity[code], Pos: pos,
		Class: class, Func: fn, Field: field, Msg: msg,
	})
}

// tracked reports whether a field type takes part in the analysis: a
// single pointer to a known class, or a data pointer (char*/int*).
func (c *checker) tracked(t cc.Type) bool {
	return t.IsClassPointer(c.prog.Classes) || t.IsDataPointer()
}

// checkClass analyzes every non-synthetic method body, reports
// pointer fields of constructor-less classes (V001), and reports
// fields that are allocated but never deleted by any method (V006).
func (c *checker) checkClass(cd *cc.ClassDecl) {
	tracked := c.trackedFields(cd)
	for _, m := range cd.Methods {
		if m.Synthetic || m.Body == nil {
			continue
		}
		c.checkBody(funcCtx{class: cd, method: m}, tracked, m.Body, m.Params)
	}
	if cd.Ctor() == nil {
		for _, f := range tracked {
			c.emit(CodeCtorUninit, f.Pos, cd.Name, "", f.Name,
				fmt.Sprintf("class %s has pointer field %s but no constructor; the field starts uninitialized and structure reuse would expose a stale pointer", cd.Name, f.Name))
		}
	}
	c.checkClassLeaks(cd, tracked)
}

// trackedFields returns the class's analyzable pointer fields in
// declaration order, skipping synthesized shadow fields.
func (c *checker) trackedFields(cd *cc.ClassDecl) []*cc.Field {
	var out []*cc.Field
	for _, f := range cd.Fields {
		if !f.Shadow && c.tracked(f.Type) {
			out = append(out, f)
		}
	}
	return out
}

// checkClassLeaks reports fields that some method allocates with new
// but that no method of the class ever deletes: every structure churn
// then grows the pool without reuse (and leaks in the original).
func (c *checker) checkClassLeaks(cd *cc.ClassDecl, tracked []*cc.Field) {
	allocated := map[*cc.Field]bool{}
	deleted := map[*cc.Field]bool{}
	for _, m := range cd.Methods {
		if m.Synthetic || m.Body == nil {
			continue
		}
		walkStmt(m.Body, func(s cc.Stmt) {
			if del, ok := s.(*cc.DeleteStmt); ok {
				if f := ownField(del.X); f != nil {
					deleted[f] = true
				}
			}
		}, func(e cc.Expr) {
			if as, ok := e.(*cc.AssignExpr); ok {
				switch as.RHS.(type) {
				case *cc.NewExpr, *cc.NewArray:
					if f := ownField(as.LHS); f != nil {
						allocated[f] = true
					}
				}
			}
		})
	}
	for _, f := range tracked {
		if allocated[f] && !deleted[f] {
			c.emit(CodeLeak, f.Pos, cd.Name, "", f.Name,
				fmt.Sprintf("field %s of %s is allocated with new but no method of the class ever deletes it (leak; its structure pool grows without reuse)", f.Name, cd.Name))
		}
	}
}

// ownField returns the own-class field an lvalue names (a bare
// identifier resolved as a field, or this->name), or nil.
func ownField(e cc.Expr) *cc.Field {
	switch e := e.(type) {
	case *cc.Ident:
		if e.Kind == cc.FieldIdent {
			return e.Field
		}
	case *cc.FieldAccess:
		if _, isThis := e.Recv.(*cc.This); isThis {
			return e.Field
		}
	case *cc.Paren:
		return ownField(e.X)
	}
	return nil
}

// fa is the per-body flow analysis. One fa serves every body of a
// check, reusing its tables and state storage.
type fa struct {
	c   *checker
	ctx funcCtx
	cfg cfgBuilder
	// fields are the tracked fields of the enclosing class; a state's
	// field masks are indexed like them. tracked maps each field's
	// position in its class to its index in fields, or -1.
	fields  []*cc.Field
	tracked []int
	// names and localPos are the name and declaration position of each
	// pointer parameter and local, by slot, for diagnostics; a local's
	// are set when the walk first passes its declaration.
	names    []string
	localPos []cc.Pos
	// in[b] is the entry state of block b once reached[b]; in[len-1]
	// is the state a block's instructions update. The slabs back them.
	in        []astate
	reached   []bool
	queued    []bool
	work      []*block
	fieldSlab []pmask
	localSlab []local
}

// grow returns s resized to n zeroed elements.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// field returns the index of the enclosing class's field f among the
// tracked fields, or -1. Sema lays fields out FieldSize bytes apart in
// declaration order, so f's offset gives its position.
func (a *fa) field(f *cc.Field) int {
	return a.tracked[f.Offset/cc.FieldSize]
}

// localSlot returns the slot of the local identifier id when it is a
// pointer local some path to st declares.
func localSlot(st astate, id *cc.Ident) (int, bool) {
	return id.Slot, id.Kind == cc.LocalIdent && st.locals[id.Slot].m != 0
}

// checkBody runs the dataflow over one function or method body; fields
// are the tracked fields of the enclosing class.
func (c *checker) checkBody(ctx funcCtx, fields []*cc.Field, body *cc.Block, params []*cc.Param) {
	a := &c.flow
	g := a.cfg.build(body)
	a.c, a.ctx, a.fields = c, ctx, fields
	if ctx.class != nil {
		a.tracked = grow(a.tracked, len(ctx.class.Fields))
		for i := range a.tracked {
			a.tracked[i] = -1
		}
		for i, f := range fields {
			a.tracked[f.Offset/cc.FieldSize] = i
		}
	}
	nb, nf, nl := len(g.blocks), len(fields), ctx.slots()
	a.names = grow(a.names, nl)
	a.localPos = grow(a.localPos, nl)
	a.fieldSlab = grow(a.fieldSlab, (nb+1)*nf)
	a.localSlab = grow(a.localSlab, (nb+1)*nl)
	a.in = grow(a.in, nb+1)
	for i := range a.in {
		a.in[i] = astate{fields: a.fieldSlab[i*nf : (i+1)*nf], locals: a.localSlab[i*nl : (i+1)*nl]}
	}
	a.reached, a.queued = grow(a.reached, nb), grow(a.queued, nb)

	entry := a.in[g.entry.id]
	for i := range fields {
		if ctx.isCtor() {
			entry.fields[i] = stUninit
		} else {
			entry.fields[i] = stUnknown
		}
	}
	for _, p := range params {
		if p.Type.IsPointer() {
			entry.locals[p.Slot].m = stUnknown
			a.names[p.Slot], a.localPos[p.Slot] = p.Name, p.Pos
		}
	}

	a.reached[g.entry.id], a.queued[g.entry.id] = true, true
	work := append(a.work[:0], g.entry)
	st := a.in[nb]
	for i := 0; i < len(work); i++ {
		b := work[i]
		a.queued[b.id] = false
		st.copyFrom(a.in[b.id])
		for _, ins := range b.instrs {
			a.transfer(st, ins)
		}
		for _, succ := range b.succs {
			changed := false
			if !a.reached[succ.id] {
				a.in[succ.id].copyFrom(st)
				a.reached[succ.id] = true
				changed = true
			} else if merge(a.in[succ.id], st) {
				changed = true
			}
			if changed && !a.queued[succ.id] {
				a.queued[succ.id] = true
				work = append(work, succ)
			}
		}
	}
	a.work = work
	if a.reached[g.exit.id] {
		a.exitChecks(a.in[g.exit.id])
	}
}

// transfer applies one CFG instruction to the state, emitting
// diagnostics as defects become visible.
func (a *fa) transfer(st astate, ins instr) {
	if ins.stmt == nil {
		a.eval(st, ins.cond)
		return
	}
	switch s := ins.stmt.(type) {
	case *cc.VarDecl:
		v := opaque(stUninit)
		if s.Init != nil {
			v = a.eval(st, s.Init)
		}
		if s.Type.IsPointer() {
			a.names[s.Slot], a.localPos[s.Slot] = s.Name, s.Pos
			a.setLocal(st, s.Slot, v)
		}
	case *cc.ExprStmt:
		a.eval(st, s.X)
	case *cc.DeleteStmt:
		a.transferDelete(st, s)
	case *cc.Return:
		if s.X != nil {
			v := a.eval(st, s.X)
			if v.field >= 0 && a.classPointerField(v.field) {
				name := a.fields[v.field].Name
				a.c.emit(CodeFieldEscape, s.Pos, a.ctx.className(), a.ctx.name(), name,
					fmt.Sprintf("%s returns pointer field %s; the caller's copy outlives logical deletion and breaks shadow reuse", a.ctx.name(), name))
			}
			a.moveOwnership(st, v)
		}
	case *cc.Spawn:
		for _, arg := range s.Args {
			v := a.eval(st, arg)
			if v.m.has(stDeleted) {
				name := ""
				switch {
				case v.field >= 0:
					name = a.fields[v.field].Name
				case v.local >= 0:
					name = a.names[v.local]
				}
				a.c.emit(CodeCrossThreadUAD, cc.ExprPos(arg), "", a.ctx.name(), name,
					fmt.Sprintf("%s hands a possibly deleted pointer to spawned function %s; the new thread would use freed memory (cross-thread use-after-delete)", a.ctx.name(), s.Func))
			}
			a.argEscape(st, v, cc.ExprPos(arg), "spawned function ", s.Func)
			if v.local >= 0 {
				st.locals[v.local].spawn = s
			}
		}
	case *cc.Join:
		// Barrier: every spawned thread has finished, so hand-offs are
		// no longer live.
		for i := range st.locals {
			st.locals[i].spawn = nil
		}
	}
}

// classPointerField reports whether tracked field i is a class pointer
// (escape diagnostics are limited to those; data-array buffers are
// routinely handed to readers).
func (a *fa) classPointerField(i int) bool {
	return a.fields[i].Type.IsClassPointer(a.c.prog.Classes)
}

// setLocal strong-updates the pointer local in slot i. Reassigning a
// local also ends its spawn hand-off: the variable no longer names the
// value the spawned thread holds.
func (a *fa) setLocal(st astate, i int, v aval) {
	m := v.m
	if v.fromNew {
		m = stFresh
	}
	alias := aliasNone
	if v.field >= 0 {
		alias = int32(v.field) + 1
	}
	st.locals[i] = local{m: m, alias: alias}
}

// moveOwnership marks a local's fresh allocation as handed off, so it
// is no longer reported as leaked at exit.
func (a *fa) moveOwnership(st astate, v aval) {
	if v.local < 0 {
		return
	}
	if l := &st.locals[v.local]; l.m.has(stFresh) {
		l.m = (l.m &^ stFresh) | stUnknown
	}
}

// argEscape handles a value passed out of the body (call argument) to
// the callee kind+name.
func (a *fa) argEscape(st astate, v aval, pos cc.Pos, kind, name string) {
	if v.field >= 0 && a.classPointerField(v.field) {
		field := a.fields[v.field].Name
		a.c.emit(CodeFieldEscape, pos, a.ctx.className(), a.ctx.name(), field,
			fmt.Sprintf("%s passes pointer field %s to %s%s; an external reference breaks shadow-pointer reuse", a.ctx.name(), field, kind, name))
	}
	a.moveOwnership(st, v)
}

// deref reports a dereference of a possibly-deleted pointer (V002).
func (a *fa) deref(v aval, pos cc.Pos, what, name string) {
	if !v.m.has(stDeleted) {
		return
	}
	switch {
	case v.field >= 0:
		field := a.fields[v.field].Name
		a.c.emit(CodeUseAfterDelete, pos, a.ctx.className(), a.ctx.name(), field,
			fmt.Sprintf("%s uses field %s after delete (%s%s); logical deletion keeps the object alive and would silently mask this", a.ctx.name(), field, what, name))
	case v.local >= 0:
		lname := a.names[v.local]
		a.c.emit(CodeUseAfterDelete, pos, "", a.ctx.name(), lname,
			fmt.Sprintf("%s uses local %s after delete (%s%s)", a.ctx.name(), lname, what, name))
	default:
		a.c.emit(CodeUseAfterDelete, pos, "", a.ctx.name(), "",
			fmt.Sprintf("%s dereferences a possibly deleted pointer (%s%s)", a.ctx.name(), what, name))
	}
}

// transferDelete applies a delete statement.
func (a *fa) transferDelete(st astate, s *cc.DeleteStmt) {
	v := a.eval(st, s.X)
	switch {
	case v.field >= 0 && v.local < 0:
		// Direct delete of an own field: the statement the rewriter
		// turns into logical deletion.
		field := a.fields[v.field].Name
		old := st.fields[v.field]
		if old.has(stDeleted) {
			a.c.emit(CodeDoubleDelete, s.Pos, a.ctx.className(), a.ctx.name(), field,
				fmt.Sprintf("%s deletes field %s which may already be deleted (double delete; after the rewrite the destructor would run twice on the same object)", a.ctx.name(), field))
		}
		if !old.only(stNull) {
			st.fields[v.field] = stDeleted
		}
	case v.local >= 0 && v.field >= 0:
		// Delete of a field's value through a local alias: not
		// rewritten by core.Rewrite — pool/heap lifecycle mismatch.
		field := a.fields[v.field].Name
		a.c.emit(CodeAliasDelete, s.Pos, a.ctx.className(), a.ctx.name(), field,
			fmt.Sprintf("%s deletes field %s through local alias %s; the pre-processor only rewrites deletes that target the field, so the pooled object is freed physically while the field expects logical deletion", a.ctx.name(), field, a.names[v.local]))
		st.locals[v.local].m = stDeleted
		st.fields[v.field] = stDeleted
	case v.local >= 0:
		l := &st.locals[v.local]
		lname := a.names[v.local]
		old := l.m
		if old.has(stDeleted) {
			a.c.emit(CodeDoubleDelete, s.Pos, "", a.ctx.name(), lname,
				fmt.Sprintf("%s deletes local %s which may already be deleted (double delete)", a.ctx.name(), lname))
		}
		if l.spawn != nil {
			a.c.emit(CodeCrossThreadUAD, s.Pos, "", a.ctx.name(), lname,
				fmt.Sprintf("%s deletes local %s while spawned function %s may still use it; no join separates the hand-off from the delete (cross-thread use-after-delete)", a.ctx.name(), lname, l.spawn.Func))
		}
		if !old.only(stNull) {
			l.m = stDeleted
		}
	}
}

// ownFieldVal is the value of tracked field i.
func ownFieldVal(st astate, i int) aval {
	return aval{m: st.fields[i], field: i, local: -1}
}

// localVal is the value of the pointer local in slot i.
func localVal(st astate, i int) aval {
	l := st.locals[i]
	return aval{m: l.m, field: l.field(), local: i}
}

// assign applies an assignment and returns the assigned value.
func (a *fa) assign(st astate, lhs cc.Expr, rv aval, pos cc.Pos) aval {
	switch l := lhs.(type) {
	case *cc.Paren:
		return a.assign(st, l.X, rv, pos)
	case *cc.Ident:
		if l.Kind == cc.FieldIdent {
			if i := a.field(l.Field); i >= 0 {
				a.assignField(st, i, rv, pos)
				return ownFieldVal(st, i)
			}
			return rv
		}
		if i, ok := localSlot(st, l); ok {
			a.setLocal(st, i, rv)
			return localVal(st, i)
		}
		return rv
	case *cc.FieldAccess:
		if _, isThis := l.Recv.(*cc.This); isThis {
			if i := a.field(l.Field); i >= 0 {
				a.assignField(st, i, rv, pos)
				return ownFieldVal(st, i)
			}
			return rv
		}
		// Store into another object's field.
		rcv := a.eval(st, l.Recv)
		a.deref(rcv, cc.ExprPos(l.Recv), "field store ->", l.Name)
		if rv.field >= 0 && a.classPointerField(rv.field) {
			field := a.fields[rv.field].Name
			a.c.emit(CodeFieldEscape, pos, a.ctx.className(), a.ctx.name(), field,
				fmt.Sprintf("%s stores pointer field %s into another object; an external reference breaks shadow-pointer reuse", a.ctx.name(), field))
		}
		a.moveOwnership(st, rv)
		return rv
	case *cc.Index:
		base := a.eval(st, l.X)
		a.deref(base, cc.ExprPos(l.X), "indexed store", "")
		a.eval(st, l.I)
		return rv
	}
	return rv
}

// assignField strong-updates tracked field i, reporting field-to-field
// aliasing (V005) and overwrite-while-live leaks (V006).
func (a *fa) assignField(st astate, i int, rv aval, pos cc.Pos) {
	name := a.fields[i].Name
	if rv.field >= 0 && rv.field != i {
		a.c.emit(CodeFieldEscape, pos, a.ctx.className(), a.ctx.name(), name,
			fmt.Sprintf("%s assigns field %s the value of field %s; two fields sharing one child make shadow-pointer reuse unsound", a.ctx.name(), name, a.fields[rv.field].Name))
	}
	if st.fields[i].has(stFresh) {
		a.c.emit(CodeLeak, pos, a.ctx.className(), a.ctx.name(), name,
			fmt.Sprintf("%s overwrites field %s while it may still hold a live allocation (leak)", a.ctx.name(), name))
	}
	m := rv.m
	if rv.fromNew {
		m = stFresh
	}
	st.fields[i] = m
	a.moveOwnership(st, rv)
}

// eval computes the abstract value of an expression, applying the
// effects and checks of everything it evaluates along the way.
func (a *fa) eval(st astate, e cc.Expr) aval {
	switch e := e.(type) {
	case *cc.IntLit, *cc.StrLit, *cc.This:
		return opaque(stUnknown)
	case *cc.NullLit:
		return opaque(stNull)
	case *cc.Ident:
		if e.Kind == cc.FieldIdent {
			if i := a.field(e.Field); i >= 0 {
				return ownFieldVal(st, i)
			}
			return opaque(stUnknown)
		}
		if i, ok := localSlot(st, e); ok {
			return localVal(st, i)
		}
		return opaque(stUnknown)
	case *cc.Paren:
		return a.eval(st, e.X)
	case *cc.Unary:
		a.eval(st, e.X)
		return opaque(stUnknown)
	case *cc.Binary:
		a.eval(st, e.X)
		a.eval(st, e.Y)
		return opaque(stUnknown)
	case *cc.AssignExpr:
		rv := a.eval(st, e.RHS)
		return a.assign(st, e.LHS, rv, e.Pos)
	case *cc.Call:
		_, intrinsic := cc.Intrinsics[e.Func]
		for _, arg := range e.Args {
			v := a.eval(st, arg)
			if !intrinsic {
				a.argEscape(st, v, cc.ExprPos(arg), "function ", e.Func)
			}
		}
		return opaque(stUnknown)
	case *cc.MethodCall:
		rv := a.eval(st, e.Recv)
		a.deref(rv, cc.ExprPos(e.Recv), "receiver of method call ", e.Name)
		for _, arg := range e.Args {
			v := a.eval(st, arg)
			a.argEscape(st, v, cc.ExprPos(arg), "method ", e.Name)
		}
		return opaque(stUnknown)
	case *cc.DtorCall:
		rv := a.eval(st, e.Recv)
		a.deref(rv, cc.ExprPos(e.Recv), "explicit destructor call", "")
		return opaque(stUnknown)
	case *cc.FieldAccess:
		if _, isThis := e.Recv.(*cc.This); isThis {
			if i := a.field(e.Field); i >= 0 {
				return ownFieldVal(st, i)
			}
			return opaque(stUnknown)
		}
		rv := a.eval(st, e.Recv)
		a.deref(rv, cc.ExprPos(e.Recv), "field access ->", e.Name)
		return opaque(stUnknown)
	case *cc.Index:
		base := a.eval(st, e.X)
		a.deref(base, cc.ExprPos(e.X), "indexing", "")
		a.eval(st, e.I)
		return opaque(stUnknown)
	case *cc.NewExpr:
		if e.Placement != nil {
			a.eval(st, e.Placement)
		}
		for _, arg := range e.Args {
			v := a.eval(st, arg)
			a.argEscape(st, v, cc.ExprPos(arg), "constructor of ", e.Class)
		}
		return fresh()
	case *cc.NewArray:
		a.eval(st, e.Len)
		return fresh()
	}
	return opaque(stUnknown)
}

// fresh is the value of an allocation made by the expression itself.
func fresh() aval {
	v := opaque(stFresh)
	v.fromNew = true
	return v
}

// exitChecks runs once over the merged state at the exit block: the
// constructor-discipline check (V001) and local leak reports (V006).
// Each finding has a key of its own, and Check sorts the deduplicated
// findings, so the order of emission does not show.
func (a *fa) exitChecks(ex astate) {
	if a.ctx.isCtor() {
		for i, f := range a.fields {
			m := ex.fields[i]
			if !m.has(stUninit) {
				continue
			}
			msg := fmt.Sprintf("a path through %s leaves pointer field %s unassigned; structure reuse would expose a stale pointer instead of fresh-heap garbage", a.ctx.name(), f.Name)
			if m.only(stUninit) {
				msg = fmt.Sprintf("%s never assigns pointer field %s; structure reuse would expose a stale pointer instead of fresh-heap garbage", a.ctx.name(), f.Name)
			}
			a.c.emit(CodeCtorUninit, f.Pos, a.ctx.className(), a.ctx.name(), f.Name, msg)
		}
	}
	for i, name := range a.names {
		if ex.locals[i].m.has(stFresh) {
			a.c.emit(CodeLeak, a.localPos[i], "", a.ctx.name(), name,
				fmt.Sprintf("local %s may still hold its allocation when %s returns (leak)", name, a.ctx.name()))
		}
	}
}

// walkStmt visits every statement and expression under s.
func walkStmt(s cc.Stmt, sf func(cc.Stmt), ef func(cc.Expr)) {
	if s == nil {
		return
	}
	sf(s)
	switch s := s.(type) {
	case *cc.Block:
		for _, sub := range s.Stmts {
			walkStmt(sub, sf, ef)
		}
	case *cc.VarDecl:
		walkExpr(s.Init, ef)
	case *cc.ExprStmt:
		walkExpr(s.X, ef)
	case *cc.If:
		walkExpr(s.Cond, ef)
		walkStmt(s.Then, sf, ef)
		walkStmt(s.Else, sf, ef)
	case *cc.While:
		walkExpr(s.Cond, ef)
		walkStmt(s.Body, sf, ef)
	case *cc.For:
		walkStmt(s.Init, sf, ef)
		walkExpr(s.Cond, ef)
		walkExpr(s.Post, ef)
		walkStmt(s.Body, sf, ef)
	case *cc.Return:
		walkExpr(s.X, ef)
	case *cc.DeleteStmt:
		walkExpr(s.X, ef)
	case *cc.Spawn:
		for _, arg := range s.Args {
			walkExpr(arg, ef)
		}
	}
}

// walkExpr visits every expression under e.
func walkExpr(e cc.Expr, ef func(cc.Expr)) {
	if e == nil {
		return
	}
	ef(e)
	switch e := e.(type) {
	case *cc.Unary:
		walkExpr(e.X, ef)
	case *cc.Binary:
		walkExpr(e.X, ef)
		walkExpr(e.Y, ef)
	case *cc.AssignExpr:
		walkExpr(e.LHS, ef)
		walkExpr(e.RHS, ef)
	case *cc.Call:
		for _, arg := range e.Args {
			walkExpr(arg, ef)
		}
	case *cc.MethodCall:
		walkExpr(e.Recv, ef)
		for _, arg := range e.Args {
			walkExpr(arg, ef)
		}
	case *cc.DtorCall:
		walkExpr(e.Recv, ef)
	case *cc.FieldAccess:
		walkExpr(e.Recv, ef)
	case *cc.Index:
		walkExpr(e.X, ef)
		walkExpr(e.I, ef)
	case *cc.NewExpr:
		walkExpr(e.Placement, ef)
		for _, arg := range e.Args {
			walkExpr(arg, ef)
		}
	case *cc.NewArray:
		walkExpr(e.Len, ef)
	case *cc.Paren:
		walkExpr(e.X, ef)
	}
}
