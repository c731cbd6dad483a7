// Package core implements the Amplify pre-processor — the paper's
// contribution (§3.2). Given a parsed MiniCC program it rewrites the
// source so every class transparently uses a generalized structure
// pool:
//
//   - each class gains operator new / operator delete overloads that
//     redirect allocation to the class's pool (existing user-defined
//     operators are respected and left alone);
//   - every pointer field gets a shadow pointer field, invisible to the
//     programmer, that preserves the child structure across delete;
//   - `delete f;` on a pointer field becomes
//     `if (f) { f->~T(); fShadow = f; }` — logical deletion;
//   - `f = new T(...)` on a pointer field becomes
//     `f = new(fShadow) T(...)` — structure reuse via placement new;
//   - `b = new char[n];` on a data-array field becomes
//     `b = realloc(bShadow, n);` and `delete[] b;` becomes
//     `bShadow = __shadow_save(b);` (the BGw extension of §5.2).
//
// Two variants the paper discusses are also implemented: per-class
// opt-out (§5.1, "the designer may choose not to amplify objects") and
// the logical-delete flag encoding (§5.1 sketches replacing each shadow
// pointer with one bit; the paper left it unimplemented — here it is
// available as ModeFlag).
//
// Like the original tool, the transformation assumes ordinary C++
// constructor discipline: every pointer member is initialized on every
// constructor path (reading an uninitialized member is undefined
// behaviour in the source language to begin with). Structure reuse
// preserves the previous instance's bytes, so a constructor that left a
// pointer member unassigned would observe a stale value rather than
// whatever garbage malloc returned — the transformed program is exactly
// as correct as the original, but differently so.
package core

import (
	"fmt"
	"sort"
	"strings"

	"amplify/internal/cc"
	"amplify/internal/vet"
)

// Mode selects how deleted-child state is represented.
type Mode string

// Modes.
const (
	// ModeShadow is the paper's implemented design: a shadow pointer per
	// pointer field.
	ModeShadow Mode = "shadow"
	// ModeFlag is the §5.1 sketch: the original pointer doubles as the
	// shadow and a flag marks it logically deleted. (A production
	// implementation would pack the flags into one bit each; MiniCC
	// stores them as int fields.)
	ModeFlag Mode = "flag"
)

// Options configure the pre-processor.
type Options struct {
	// Exclude lists classes that must not be amplified.
	Exclude []string
	// AutoExclude maps classes to the analyzer verdict that made them
	// ineligible (typically vet.Result.Ineligible output). Auto-excluded
	// classes are skipped exactly like Exclude entries but reported
	// separately, so a report distinguishes the designer's choices from
	// the analyzer's.
	AutoExclude map[string]string
	// ArraysOnly limits the rewrite to data-type arrays, the variant
	// §5.2 measured on BGw ("only data type arrays were shadowed").
	ArraysOnly bool
	// Mode selects shadow pointers (default) or logical-delete flags.
	Mode Mode
	// Escape enables the interprocedural escape/lifetime analysis and
	// the three rewrites it drives: frame promotion of non-escaping
	// new/delete pairs, lock-free thread-private pools for classes that
	// never cross a thread boundary, and pool pre-sizing from inferred
	// allocation bounds. Off by default so the classic §3.2 output is
	// byte-stable; ignored under ArraysOnly (no pools to drive).
	Escape bool
}

func (o Options) excluded(name string) bool {
	for _, e := range o.Exclude {
		if e == name {
			return true
		}
	}
	_, auto := o.AutoExclude[name]
	return auto
}

// Report describes what the pre-processor did.
type Report struct {
	// Pooled lists classes that received pool operators.
	Pooled []string
	// Skipped lists classes left alone and why.
	Skipped map[string]string
	// AutoExcluded lists classes the static analyzer ruled ineligible,
	// with the condemning diagnostic codes.
	AutoExcluded map[string]string
	// ShadowFields counts shadow (or flag) fields added per class.
	ShadowFields map[string]int
	// Rewrites counts source rewrites by rule.
	DeleteRewrites      int
	NewRewrites         int
	ArrayNewRewrites    int
	ArrayDeleteRewrites int
	// SingleThreaded records that the program never spawns threads, so
	// the runtime elides pool locks (§5.1).
	SingleThreaded bool

	// Escape-analysis rewrite results (Options.Escape only).
	//
	// EscapeSites counts `new` sites the analysis classified;
	// FramePromoted counts the new/delete pairs moved to the frame
	// region. ThreadLocalPools lists classes whose pool operators use
	// the lock-free thread-private intrinsics. PoolReserves lists the
	// __pool_reserve pre-sizing calls injected at the top of main.
	EscapeSites      int
	FramePromoted    int
	ThreadLocalPools []string
	PoolReserves     []ReserveHint
}

// ReserveHint is one injected pool pre-sizing call.
type ReserveHint struct {
	Class string
	Count int64
}

// String renders the report for the CLI.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Amplify report\n")
	fmt.Fprintf(&b, "  pooled classes:      %s\n", strings.Join(r.Pooled, ", "))
	skipped := make([]string, 0, len(r.Skipped))
	for name, why := range r.Skipped {
		skipped = append(skipped, fmt.Sprintf("%s (%s)", name, why))
	}
	sort.Strings(skipped)
	if len(skipped) > 0 {
		fmt.Fprintf(&b, "  skipped classes:     %s\n", strings.Join(skipped, ", "))
	}
	auto := make([]string, 0, len(r.AutoExcluded))
	for name, why := range r.AutoExcluded {
		auto = append(auto, fmt.Sprintf("%s (%s)", name, why))
	}
	sort.Strings(auto)
	if len(auto) > 0 {
		fmt.Fprintf(&b, "  auto-excluded:       %s\n", strings.Join(auto, ", "))
	}
	total := 0
	names := make([]string, 0, len(r.ShadowFields))
	for name := range r.ShadowFields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		total += r.ShadowFields[name]
	}
	fmt.Fprintf(&b, "  shadow fields added: %d across %d classes\n", total, len(names))
	fmt.Fprintf(&b, "  rewrites: %d delete, %d new, %d array-new, %d array-delete\n",
		r.DeleteRewrites, r.NewRewrites, r.ArrayNewRewrites, r.ArrayDeleteRewrites)
	fmt.Fprintf(&b, "  single-threaded: %v (pool locks %s)\n", r.SingleThreaded,
		map[bool]string{true: "elided", false: "kept"}[r.SingleThreaded])
	if r.EscapeSites > 0 || r.FramePromoted > 0 {
		fmt.Fprintf(&b, "  escape analysis:     %d sites, %d frame-promoted\n",
			r.EscapeSites, r.FramePromoted)
	}
	if len(r.ThreadLocalPools) > 0 {
		fmt.Fprintf(&b, "  thread-private pools: %s\n", strings.Join(r.ThreadLocalPools, ", "))
	}
	if len(r.PoolReserves) > 0 {
		parts := make([]string, 0, len(r.PoolReserves))
		for _, h := range r.PoolReserves {
			parts = append(parts, fmt.Sprintf("%s=%d", h.Class, h.Count))
		}
		fmt.Fprintf(&b, "  pool pre-sizing:     %s\n", strings.Join(parts, ", "))
	}
	return b.String()
}

// Rewrite runs the pre-processor over src and returns the transformed
// source plus a report: RewriteProgram on the parsed and analyzed
// input.
func Rewrite(src string, opt Options) (string, *Report, error) {
	if err := opt.checkMode(); err != nil {
		return "", nil, err
	}
	prog, err := cc.Parse(src)
	if err == nil {
		err = cc.Analyze(prog)
	}
	if err != nil {
		return "", nil, err
	}
	out, _, rep, err := RewriteProgram(prog, opt)
	return out, rep, err
}

// RewriteProgram runs the pre-processor over a program cc.Analyze
// accepted and returns the printed result, the analyzed tree of that
// result, and a report. The tree is the output parsed and analyzed
// again, so its positions are those of the printed program; callers
// compile or run it instead of parsing the output. RewriteProgram
// consumes prog: the rewrite mutates it in place and leaves it
// unanalyzed, so prog must not be used afterwards. Analyses already
// memoized on prog — the escape analysis a vet.Check ran — are reused,
// not re-run.
func RewriteProgram(prog *cc.Program, opt Options) (string, *cc.Program, *Report, error) {
	if err := opt.checkMode(); err != nil {
		return "", nil, nil, err
	}
	if opt.Mode == "" {
		opt.Mode = ModeShadow
	}
	rw := &rewriter{prog: prog, opt: opt, report: &Report{
		Skipped:      map[string]string{},
		AutoExcluded: map[string]string{},
		ShadowFields: map[string]int{},
	}}
	if err := rw.run(); err != nil {
		return "", nil, nil, err
	}
	out := cc.Print(prog)
	// The transform must produce a valid program; the verification
	// parse is also the tree handed back.
	tree, err := cc.Parse(out)
	if err != nil {
		return "", nil, nil, fmt.Errorf("core: generated source does not parse: %w", err)
	}
	if err := cc.Analyze(tree); err != nil {
		return "", nil, nil, fmt.Errorf("core: generated source does not analyze: %w", err)
	}
	return out, tree, rw.report, nil
}

// checkMode rejects a Mode other than the two modes and the empty
// default.
func (o Options) checkMode() error {
	if o.Mode != "" && o.Mode != ModeShadow && o.Mode != ModeFlag {
		return fmt.Errorf("core: unknown mode %q", o.Mode)
	}
	return nil
}

type rewriter struct {
	prog   *cc.Program
	opt    Options
	report *Report
	// class currently being rewritten (methods only).
	class *cc.ClassDecl
	// esc is the interprocedural escape/lifetime analysis over prog
	// (Options.Escape only). Its promotion maps are keyed by AST node
	// pointers, so it must be computed on this exact program instance,
	// before any rewrite mutates the tree.
	esc *vet.EscapeReport
}

// shadowName returns the synthesized companion field name for f.
func (rw *rewriter) shadowName(f *cc.Field) string {
	if rw.opt.Mode == ModeFlag && !f.Type.IsDataPointer() {
		return f.Name + "Dead"
	}
	return f.Name + "Shadow"
}

// amplified reports whether the class takes part in the transformation.
func (rw *rewriter) amplified(cd *cc.ClassDecl) bool {
	return !rw.opt.excluded(cd.Name)
}

func (rw *rewriter) run() error {
	// The escape analysis must see the untransformed tree: its verdict
	// maps are keyed by the NewExpr/DeleteStmt nodes it analyzed.
	if rw.opt.Escape && !rw.opt.ArraysOnly {
		rw.esc = vet.Escape(rw.prog)
		rw.report.EscapeSites = len(rw.esc.Sites)
	}
	// Order classes deterministically (declaration order).
	for _, d := range rw.prog.Decls {
		cd, ok := d.(*cc.ClassDecl)
		if !ok {
			continue
		}
		if !rw.amplified(cd) {
			if why, auto := rw.opt.AutoExclude[cd.Name]; auto {
				rw.report.AutoExcluded[cd.Name] = why
			} else {
				rw.report.Skipped[cd.Name] = "excluded by option"
			}
			continue
		}
		if err := rw.addShadowFields(cd); err != nil {
			return err
		}
		if !rw.opt.ArraysOnly {
			rw.addPoolOperators(cd)
		}
	}
	// Rewrite method bodies (fields are only reachable from methods).
	for _, d := range rw.prog.Decls {
		cd, ok := d.(*cc.ClassDecl)
		if !ok || !rw.amplified(cd) {
			continue
		}
		rw.class = cd
		for _, m := range cd.Methods {
			if m.Synthetic {
				continue
			}
			rw.rewriteBlock(m.Body)
		}
		rw.class = nil
	}
	// The analysis-driven rewrites run after the §3.2 pass: promotion
	// only touches dedicated-local new/delete pairs and reserve calls
	// are fresh statements, so the two passes never fight over a node.
	rw.applyPromotions()
	rw.injectReserves()
	rw.report.SingleThreaded = !rw.prog.UsesThreads
	return nil
}

// addShadowFields appends a shadow (or flag) companion for every
// pointer field that the rewrites will reference.
func (rw *rewriter) addShadowFields(cd *cc.ClassDecl) error {
	var add []*cc.Field
	for _, f := range cd.Fields {
		if f.Shadow || looksLikeShadow(cd, f) {
			continue
		}
		classPtr := f.Type.IsClassPointer(rw.prog.Classes)
		dataPtr := f.Type.IsDataPointer()
		if !classPtr && !dataPtr {
			continue
		}
		if rw.opt.ArraysOnly && !dataPtr {
			continue
		}
		if classPtr {
			// Only shadow fields whose class is itself amplified: a
			// placement-new into an excluded class's object would bypass
			// that class's (un-pooled) lifecycle.
			child := rw.prog.Classes[f.Type.Name]
			if !rw.amplified(child) {
				continue
			}
		}
		name := rw.shadowName(f)
		ty := f.Type
		if rw.opt.Mode == ModeFlag && classPtr {
			ty = cc.Type{Name: "int"}
		}
		if existing := cd.FieldByName(name); existing != nil {
			if existing.Type == ty {
				// Already amplified (e.g. the tool ran twice); the
				// rewrites below are no-ops on transformed bodies too.
				continue
			}
			return fmt.Errorf("core: class %s already has a field %s; cannot synthesize shadow for %s",
				cd.Name, name, f.Name)
		}
		add = append(add, &cc.Field{
			Type:     ty,
			Name:     name,
			Access:   cc.Private,
			Shadow:   true,
			ShadowOf: f.Name,
		})
	}
	cd.Fields = append(cd.Fields, add...)
	if len(add) > 0 {
		rw.report.ShadowFields[cd.Name] = len(add)
	}
	return nil
}

// addPoolOperators synthesizes operator new/delete redirecting to the
// class pool — unless the programmer already defined them, which the
// pre-processor respects (§3.2).
func (rw *rewriter) addPoolOperators(cd *cc.ClassDecl) {
	if cd.OperatorNew() != nil || cd.OperatorDelete() != nil {
		rw.report.Skipped[cd.Name] = "user-defined operator new/delete respected"
		return
	}
	allocFn, freeFn := "__pool_alloc", "__pool_free"
	if rw.threadLocalPool(cd) {
		// The escape analysis proved no instance of this class crosses a
		// thread boundary, so every free happens on the allocating
		// thread and the pool can drop its per-shard mutex.
		allocFn, freeFn = "__pool_alloc_tl", "__pool_free_tl"
		rw.report.ThreadLocalPools = append(rw.report.ThreadLocalPools, cd.Name)
	}
	classRef := &cc.Ident{Name: cd.Name}
	cd.Methods = append(cd.Methods,
		&cc.Method{
			Kind:   cc.OpNew,
			Ret:    cc.Type{Name: "void", Stars: 1},
			Params: []*cc.Param{{Type: cc.Type{Name: "uint"}, Name: "size"}},
			Body: &cc.Block{Stmts: []cc.Stmt{
				&cc.Return{X: &cc.Call{Func: allocFn, Args: []cc.Expr{classRef}}},
			}},
			Access:    cc.Public,
			Class:     cd,
			Synthetic: true,
		},
		&cc.Method{
			Kind:   cc.OpDelete,
			Ret:    cc.Type{Name: "void"},
			Params: []*cc.Param{{Type: cc.Type{Name: "void", Stars: 1}, Name: "p"}},
			Body: &cc.Block{Stmts: []cc.Stmt{
				&cc.ExprStmt{X: &cc.Call{Func: freeFn,
					Args: []cc.Expr{&cc.Ident{Name: cd.Name}, &cc.Ident{Name: "p"}}}},
			}},
			Access:    cc.Public,
			Class:     cd,
			Synthetic: true,
		},
	)
	rw.report.Pooled = append(rw.report.Pooled, cd.Name)
}

// looksLikeShadow reports whether a field appears to be a previously
// synthesized companion (its name carries the suffix and the base field
// exists), so a second pre-processor pass does not shadow shadows.
func looksLikeShadow(cd *cc.ClassDecl, f *cc.Field) bool {
	for _, suffix := range []string{"Shadow", "Dead"} {
		base, ok := strings.CutSuffix(f.Name, suffix)
		if ok && base != "" && cd.FieldByName(base) != nil {
			return true
		}
	}
	return false
}

// fieldOf returns the field referenced by an lvalue expression that
// names a member of the current class (a bare identifier resolved as a
// field, or this->name), together with a function that builds a fresh
// reference to a same-receiver member (for the shadow field).
func (rw *rewriter) fieldOf(e cc.Expr) (*cc.Field, func(name string) cc.Expr) {
	switch e := e.(type) {
	case *cc.Ident:
		if e.Kind == cc.FieldIdent && e.Field != nil {
			return e.Field, func(name string) cc.Expr { return &cc.Ident{Name: name} }
		}
	case *cc.FieldAccess:
		if _, isThis := e.Recv.(*cc.This); isThis && e.Field != nil {
			return e.Field, func(name string) cc.Expr {
				return &cc.FieldAccess{Recv: &cc.This{}, Name: name}
			}
		}
	case *cc.Paren:
		return rw.fieldOf(e.X)
	}
	return nil, nil
}

// rewriteBlock rewrites statements in place.
func (rw *rewriter) rewriteBlock(b *cc.Block) {
	for i, s := range b.Stmts {
		b.Stmts[i] = rw.rewriteStmt(s)
	}
}

func (rw *rewriter) rewriteStmt(s cc.Stmt) cc.Stmt {
	switch s := s.(type) {
	case *cc.Block:
		rw.rewriteBlock(s)
	case *cc.If:
		s.Then = rw.rewriteStmt(s.Then)
		if s.Else != nil {
			s.Else = rw.rewriteStmt(s.Else)
		}
	case *cc.While:
		s.Body = rw.rewriteStmt(s.Body)
	case *cc.For:
		s.Body = rw.rewriteStmt(s.Body)
	case *cc.ExprStmt:
		if rw.opt.Mode == ModeFlag {
			if repl := rw.flagAllocStmt(s); repl != nil {
				return repl
			}
		}
		s.X = rw.rewriteExpr(s.X)
	case *cc.VarDecl:
		if s.Init != nil {
			s.Init = rw.rewriteExpr(s.Init)
		}
	case *cc.Return:
		if s.X != nil {
			s.X = rw.rewriteExpr(s.X)
		}
	case *cc.DeleteStmt:
		if repl := rw.rewriteDelete(s); repl != nil {
			return repl
		}
	}
	return s
}

// rewriteDelete handles `delete f;` and `delete[] b;` on member fields.
func (rw *rewriter) rewriteDelete(s *cc.DeleteStmt) cc.Stmt {
	f, member := rw.fieldOf(s.X)
	if f == nil {
		return nil
	}
	if s.Array && f.Type.IsDataPointer() {
		// delete[] b;  ->  bShadow = __shadow_save(b);
		// (identical in both modes: the bit trick of §5.1 concerns
		// object pointers, not data arrays).
		rw.report.ArrayDeleteRewrites++
		return &cc.ExprStmt{X: &cc.AssignExpr{
			LHS: member(rw.shadowName(f)),
			RHS: &cc.Call{Func: "__shadow_save", Args: []cc.Expr{member(f.Name)}},
		}}
	}
	if !s.Array && f.Type.IsClassPointer(rw.prog.Classes) {
		child := rw.prog.Classes[f.Type.Name]
		if !rw.amplified(child) || rw.opt.ArraysOnly {
			return nil
		}
		rw.report.DeleteRewrites++
		if rw.opt.Mode == ModeFlag {
			// if (f) { f->~T(); fDead = 1; }
			return &cc.If{
				Cond: member(f.Name),
				Then: &cc.Block{Stmts: []cc.Stmt{
					&cc.ExprStmt{X: &cc.DtorCall{Recv: member(f.Name), Class: f.Type.Name}},
					&cc.ExprStmt{X: &cc.AssignExpr{
						LHS: member(rw.shadowName(f)),
						RHS: &cc.IntLit{Value: 1},
					}},
				}},
			}
		}
		// if (f) { f->~T(); fShadow = f; }
		return &cc.If{
			Cond: member(f.Name),
			Then: &cc.Block{Stmts: []cc.Stmt{
				&cc.ExprStmt{X: &cc.DtorCall{Recv: member(f.Name), Class: f.Type.Name}},
				&cc.ExprStmt{X: &cc.AssignExpr{
					LHS: member(rw.shadowName(f)),
					RHS: member(f.Name),
				}},
			}},
		}
	}
	return nil
}

// rewriteExpr rewrites member-field allocations inside an expression
// tree and returns the (possibly replaced) expression.
func (rw *rewriter) rewriteExpr(e cc.Expr) cc.Expr {
	switch e := e.(type) {
	case *cc.AssignExpr:
		e.RHS = rw.rewriteExpr(e.RHS)
		if repl := rw.rewriteAlloc(e); repl != nil {
			return repl
		}
	case *cc.Paren:
		e.X = rw.rewriteExpr(e.X)
	case *cc.Unary:
		e.X = rw.rewriteExpr(e.X)
	case *cc.Binary:
		e.X = rw.rewriteExpr(e.X)
		e.Y = rw.rewriteExpr(e.Y)
	case *cc.Call:
		for i := range e.Args {
			e.Args[i] = rw.rewriteExpr(e.Args[i])
		}
	case *cc.MethodCall:
		for i := range e.Args {
			e.Args[i] = rw.rewriteExpr(e.Args[i])
		}
	case *cc.NewExpr:
		for i := range e.Args {
			e.Args[i] = rw.rewriteExpr(e.Args[i])
		}
	}
	return e
}

// flagAllocStmt implements the ModeFlag variant of the allocation
// rewrite for `f = new T(...);` statements:
//
//	if (fDead && f) { new(f) T(...); fDead = 0; } else { f = new T(...); }
//
// The pointer itself serves as the shadow while the flag marks it
// logically dead — the one-bit encoding §5.1 sketches.
func (rw *rewriter) flagAllocStmt(s *cc.ExprStmt) cc.Stmt {
	as, ok := s.X.(*cc.AssignExpr)
	if !ok {
		return nil
	}
	rhs, ok := as.RHS.(*cc.NewExpr)
	if !ok || rhs.Placement != nil || rw.opt.ArraysOnly {
		return nil
	}
	f, member := rw.fieldOf(as.LHS)
	if f == nil || !f.Type.IsClassPointer(rw.prog.Classes) || f.Type.Name != rhs.Class {
		return nil
	}
	if !rw.amplified(rw.prog.Classes[rhs.Class]) {
		return nil
	}
	rw.report.NewRewrites++
	flag := rw.shadowName(f)
	reuse := &cc.NewExpr{Class: rhs.Class, Args: rhs.Args, Placement: member(f.Name)}
	fresh := &cc.NewExpr{Class: rhs.Class, Args: cloneArgs(rhs.Args), Placement: nil}
	return &cc.If{
		Cond: &cc.Binary{Op: cc.AndAnd, X: member(flag), Y: member(f.Name)},
		Then: &cc.Block{Stmts: []cc.Stmt{
			&cc.ExprStmt{X: reuse},
			&cc.ExprStmt{X: &cc.AssignExpr{LHS: member(flag), RHS: &cc.IntLit{Value: 0}}},
		}},
		Else: &cc.Block{Stmts: []cc.Stmt{
			&cc.ExprStmt{X: &cc.AssignExpr{LHS: member(f.Name), RHS: fresh}},
		}},
	}
}

// cloneArgs shallow-copies an argument list. The two branches of the
// flag rewrite may share argument expressions only if each branch is
// executed exclusively, which holds — but the analyzer resolves nodes
// in place, so distinct slices keep the tree a tree.
func cloneArgs(args []cc.Expr) []cc.Expr {
	out := make([]cc.Expr, len(args))
	copy(out, args)
	return out
}

// rewriteAlloc rewrites `f = new T(...)` and `b = new char[n]` when the
// left-hand side is a member field, per §3.2 and §5.2.
func (rw *rewriter) rewriteAlloc(as *cc.AssignExpr) cc.Expr {
	f, member := rw.fieldOf(as.LHS)
	if f == nil {
		return nil
	}
	switch rhs := as.RHS.(type) {
	case *cc.NewExpr:
		if rw.opt.ArraysOnly || rhs.Placement != nil {
			return nil
		}
		if !f.Type.IsClassPointer(rw.prog.Classes) || f.Type.Name != rhs.Class {
			return nil
		}
		if !rw.amplified(rw.prog.Classes[rhs.Class]) {
			return nil
		}
		if rw.opt.Mode == ModeFlag {
			// Handled at statement level by flagAllocStmt; other
			// contexts keep the original form.
			return nil
		}
		rw.report.NewRewrites++
		// f = new(fShadow) T(...);
		rhs.Placement = member(rw.shadowName(f))
		return as
	case *cc.NewArray:
		if !f.Type.IsDataPointer() {
			return nil
		}
		rw.report.ArrayNewRewrites++
		shadow := member(rw.shadowName(f))
		elem := 1
		if rhs.Elem.Name == "int" {
			elem = cc.FieldSize
		}
		size := rhs.Len
		if elem > 1 {
			size = &cc.Binary{Op: cc.Star, X: &cc.Paren{X: rhs.Len}, Y: &cc.IntLit{Value: int64(elem)}}
		}
		// b = realloc(bShadow, n);
		as.RHS = &cc.Call{Func: "realloc", Args: []cc.Expr{shadow, size}}
		return as
	}
	return nil
}
