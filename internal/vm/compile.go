package vm

import (
	"fmt"
	"strconv"
	"strings"

	"amplify/internal/cc"
	"amplify/internal/mem"
)

// Fn is a compiled function or method body.
type Fn struct {
	Name   string
	Params int
	Slots  int // local slot count including parameters
	Code   []Instr
	// Class is non-nil for member functions.
	Class *cc.ClassDecl
	Kind  cc.MethodKind
}

// Program is a compiled translation unit.
type Program struct {
	Src    *cc.Program
	Fns    []*Fn
	Consts []int64
	Strs   []string // string-literal table
	Names  []string // method/field-name table for dynamic dispatch
	// Sites is the allocation-site table that the C operand of
	// OpNew/OpPlacementNew/OpNewArray/OpPoolAlloc/OpRealloc indexes:
	// "fn@line(Class)" for objects, "fn@line" for buffers — the Site of
	// the birth events those opcodes emit. Sites[0] is the "?"
	// sentinel, so an unset C operand resolves to an unknown site rather
	// than a wrong one.
	Sites []string
	// FuncID maps free-function names to Fn indices.
	FuncID map[string]int
	// Optimized records whether the peephole pass ran.
	Optimized bool
	// classes are the per-class dispatch records, indexed by the class
	// ids that OpNew/OpDtor/OpPoolAlloc/OpPoolFree carry in A.
	classes []*classInfo
	// methodSites counts OpMethod sites; each site's C operand indexes
	// the executing machine's inline-cache array.
	methodSites int
	// methodID maps class/kind/name to Fn indices.
	methodID map[methodKey]int
	classID  map[string]int
	nameID   map[string]int
	constID  map[int64]int
	strID    map[string]int
	siteID   map[string]int32
}

// classInfo is the per-class compile-time dispatch record: everything
// the run-time hot paths need, resolved to dense indices once per
// Program. Classes are immutable after Compile, so none of these
// tables ever needs invalidation.
type classInfo struct {
	id   int32
	decl *cc.ClassDecl
	// vtable and field table, indexed by global name id (p.Names).
	// vtable[n] is the Fn index of the plain method named Names[n], or
	// -1; fieldOf[n] is the field index of Names[n], or -1.
	vtable  []int32
	fieldOf []int32
	// Lifecycle member functions as Fn indices, -1 when absent.
	ctor, dtor, opNew, opDelete int32
	// offsets[i] is Fields[i].Offset, lifted out of the AST.
	offsets []int64
	// proto is the zero value of the field array (null for pointers).
	proto []value
}

type methodKey struct {
	class string
	kind  cc.MethodKind
	name  string
}

// Disassemble renders a compiled function for debugging and tests.
func (p *Program) Disassemble(fn *Fn) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (params=%d slots=%d)\n", fn.Name, fn.Params, fn.Slots)
	for i, ins := range fn.Code {
		fmt.Fprintf(&b, "%4d  %s\n", i, ins)
	}
	return b.String()
}

// Options configure compilation.
type Options struct {
	// NoOpt disables the peephole/superinstruction pass. The pass never
	// changes behavior or virtual time (fused instructions carry the
	// work charge of what they replace) — this is an escape hatch for
	// debugging and for the optimized-vs-baseline identity checks.
	NoOpt bool
}

// Compile lowers an analyzed program to optimized bytecode.
func Compile(src *cc.Program) (*Program, error) {
	return CompileOpts(src, Options{})
}

// CompileOpts lowers an analyzed program to bytecode with explicit
// optimization options.
func CompileOpts(src *cc.Program, opt Options) (*Program, error) {
	p := &Program{
		Src:      src,
		Sites:    []string{"?"},
		FuncID:   map[string]int{},
		methodID: map[methodKey]int{},
		classID:  map[string]int{},
		nameID:   map[string]int{},
		constID:  map[int64]int{},
		strID:    map[string]int{},
		siteID:   map[string]int32{"?": 0},
	}
	// Reserve ids first so calls can reference later definitions.
	for _, d := range src.Decls {
		switch d := d.(type) {
		case *cc.FuncDecl:
			p.FuncID[d.Name] = p.reserve("func " + d.Name)
		case *cc.ClassDecl:
			p.classID[d.Name] = len(p.classes)
			p.classes = append(p.classes, &classInfo{id: int32(len(p.classes)), decl: d})
			for _, m := range d.Methods {
				key := methodKey{d.Name, m.Kind, m.Name}
				p.methodID[key] = p.reserve(d.Name + "::" + m.Name + "/" + strconv.Itoa(int(m.Kind)))
			}
		}
	}
	for _, d := range src.Decls {
		switch d := d.(type) {
		case *cc.FuncDecl:
			fn, err := p.compileBody(d.Name, nil, cc.PlainMethod, d.Params, d.Body)
			if err != nil {
				return nil, err
			}
			*p.Fns[p.FuncID[d.Name]] = *fn
		case *cc.ClassDecl:
			for _, m := range d.Methods {
				fn, err := p.compileBody(methodName(d, m), d, m.Kind, m.Params, m.Body)
				if err != nil {
					return nil, err
				}
				*p.Fns[p.methodID[methodKey{d.Name, m.Kind, m.Name}]] = *fn
			}
		}
	}
	if !opt.NoOpt {
		optimize(p)
		p.Optimized = true
	}
	// The name table is final only after every body (and the peephole
	// pass, which interns no names) has been compiled; build the
	// per-class dispatch tables over it.
	p.buildClassTables()
	return p, nil
}

// buildClassTables fills every classInfo's vtable, field table,
// lifecycle ids, offsets and field prototype. Called once per Compile;
// classes are immutable afterwards, so inline caches built on these
// tables never need invalidation.
func (p *Program) buildClassTables() {
	fnID := func(cd *cc.ClassDecl, kind cc.MethodKind, name string) int32 {
		if id, ok := p.methodID[methodKey{cd.Name, kind, name}]; ok {
			return int32(id)
		}
		return -1
	}
	for _, ci := range p.classes {
		cd := ci.decl
		ci.ctor = fnID(cd, cc.Ctor, "")
		ci.dtor = fnID(cd, cc.Dtor, "")
		ci.opNew = fnID(cd, cc.OpNew, "")
		ci.opDelete = fnID(cd, cc.OpDelete, "")
		ci.vtable = make([]int32, len(p.Names))
		ci.fieldOf = make([]int32, len(p.Names))
		for n, name := range p.Names {
			ci.vtable[n] = fnID(cd, cc.PlainMethod, name)
			ci.fieldOf[n] = fieldIndex(cd, name)
		}
		ci.offsets = make([]int64, len(cd.Fields))
		ci.proto = make([]value, len(cd.Fields))
		for i, f := range cd.Fields {
			ci.offsets[i] = f.Offset
			if f.Type.IsPointer() {
				ci.proto[i] = rv(mem.Nil)
			} else {
				ci.proto[i] = iv(0)
			}
		}
	}
}

func methodName(d *cc.ClassDecl, m *cc.Method) string {
	switch m.Kind {
	case cc.Ctor:
		return d.Name + "::" + d.Name
	case cc.Dtor:
		return d.Name + "::~" + d.Name
	case cc.OpNew:
		return d.Name + "::operator new"
	case cc.OpDelete:
		return d.Name + "::operator delete"
	}
	return d.Name + "::" + m.Name
}

func (p *Program) reserve(name string) int {
	p.Fns = append(p.Fns, &Fn{Name: name})
	return len(p.Fns) - 1
}

func (p *Program) constant(v int64) int32 {
	if id, ok := p.constID[v]; ok {
		return int32(id)
	}
	p.Consts = append(p.Consts, v)
	p.constID[v] = len(p.Consts) - 1
	return int32(len(p.Consts) - 1)
}

func (p *Program) str(s string) int32 {
	if id, ok := p.strID[s]; ok {
		return int32(id)
	}
	p.Strs = append(p.Strs, s)
	p.strID[s] = len(p.Strs) - 1
	return int32(len(p.Strs) - 1)
}

func (p *Program) name(s string) int32 {
	if id, ok := p.nameID[s]; ok {
		return int32(id)
	}
	p.Names = append(p.Names, s)
	p.nameID[s] = len(p.Names) - 1
	return int32(len(p.Names) - 1)
}

// compiler holds per-function state.
type compiler struct {
	p      *Program
	class  *cc.ClassDecl
	fnName string
	code   []Instr
	scopes []map[string]int
	slots  int
}

func (p *Program) compileBody(name string, class *cc.ClassDecl, kind cc.MethodKind, params []*cc.Param, body *cc.Block) (*Fn, error) {
	c := &compiler{p: p, class: class, fnName: name}
	c.push()
	for _, prm := range params {
		c.declare(prm.Name)
	}
	if err := c.block(body); err != nil {
		return nil, err
	}
	c.pop()
	c.emit(OpRetVoid, 0, 0)
	fn := &Fn{
		Name:   name,
		Params: len(params),
		Slots:  c.slots,
		Code:   c.code,
		Class:  class,
		Kind:   kind,
	}
	return fn, nil
}

func (c *compiler) emit(op Op, a, b int32) int {
	c.code = append(c.code, Instr{Op: op, W: 1, A: a, B: b})
	return len(c.code) - 1
}

// site interns "fn@line(class)" — "fn@line" when class is empty — for
// the source position and returns its index in p.Sites, for the C
// operand of allocating opcodes.
func (c *compiler) site(pos cc.Pos, class string) int32 {
	var buf [64]byte
	b := strconv.AppendInt(append(append(buf[:0], c.fnName...), '@'), int64(pos.Line), 10)
	if class != "" {
		b = append(append(append(b, '('), class...), ')')
	}
	if id, ok := c.p.siteID[string(b)]; ok {
		return id
	}
	key := string(b)
	id := int32(len(c.p.Sites))
	c.p.Sites = append(c.p.Sites, key)
	c.p.siteID[key] = id
	return id
}

// classIdx resolves a class name to its id. The front end (sema) rejects
// unknown class names, so this only fails on unanalyzed input.
func (c *compiler) classIdx(name string) (int32, error) {
	id, ok := c.p.classID[name]
	if !ok {
		return 0, fmt.Errorf("vm: unknown class %s", name)
	}
	return int32(id), nil
}

func (c *compiler) patch(at int, target int) {
	c.code[at].A = int32(target)
}

func (c *compiler) push() { c.scopes = append(c.scopes, map[string]int{}) }
func (c *compiler) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *compiler) declare(name string) int {
	slot := c.slots
	c.slots++
	c.scopes[len(c.scopes)-1][name] = slot
	return slot
}

func (c *compiler) lookup(name string) (int, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s, true
		}
	}
	return 0, false
}

func (c *compiler) block(b *cc.Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s cc.Stmt) error {
	switch s := s.(type) {
	case *cc.Block:
		return c.block(s)
	case *cc.VarDecl:
		if s.Init != nil {
			if err := c.expr(s.Init); err != nil {
				return err
			}
		} else {
			c.emit(OpConst, c.p.constant(0), 0)
			if s.Type.IsPointer() {
				c.code[len(c.code)-1] = Instr{Op: OpNull}
			}
		}
		slot := c.declare(s.Name)
		c.emit(OpStoreLocal, int32(slot), 0)
		return nil
	case *cc.ExprStmt:
		if err := c.expr(s.X); err != nil {
			return err
		}
		c.emit(OpPop, 0, 0)
		return nil
	case *cc.If:
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		jf := c.emit(OpJmpFalse, 0, 0)
		if err := c.stmt(s.Then); err != nil {
			return err
		}
		if s.Else == nil {
			c.patch(jf, len(c.code))
			return nil
		}
		jend := c.emit(OpJmp, 0, 0)
		c.patch(jf, len(c.code))
		if err := c.stmt(s.Else); err != nil {
			return err
		}
		c.patch(jend, len(c.code))
		return nil
	case *cc.While:
		top := len(c.code)
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		jf := c.emit(OpJmpFalse, 0, 0)
		if err := c.stmt(s.Body); err != nil {
			return err
		}
		c.emit(OpJmp, int32(top), 0)
		c.patch(jf, len(c.code))
		return nil
	case *cc.For:
		c.push()
		defer c.pop()
		if s.Init != nil {
			if err := c.stmt(s.Init); err != nil {
				return err
			}
		}
		top := len(c.code)
		jf := -1
		if s.Cond != nil {
			if err := c.expr(s.Cond); err != nil {
				return err
			}
			jf = c.emit(OpJmpFalse, 0, 0)
		}
		if err := c.stmt(s.Body); err != nil {
			return err
		}
		if s.Post != nil {
			if err := c.expr(s.Post); err != nil {
				return err
			}
			c.emit(OpPop, 0, 0)
		}
		c.emit(OpJmp, int32(top), 0)
		if jf >= 0 {
			c.patch(jf, len(c.code))
		}
		return nil
	case *cc.Return:
		if s.X != nil {
			if err := c.expr(s.X); err != nil {
				return err
			}
			c.emit(OpRet, 0, 0)
		} else {
			c.emit(OpRetVoid, 0, 0)
		}
		return nil
	case *cc.DeleteStmt:
		if err := c.expr(s.X); err != nil {
			return err
		}
		if s.Array {
			c.emit(OpDeleteArray, 0, 0)
		} else {
			c.emit(OpDelete, 0, 0)
		}
		return nil
	case *cc.Spawn:
		for _, a := range s.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		c.emit(OpSpawn, int32(c.p.FuncID[s.Func]), int32(len(s.Args)))
		return nil
	case *cc.Join:
		c.emit(OpJoin, 0, 0)
		return nil
	}
	return fmt.Errorf("vm: cannot compile statement %T", s)
}

// fieldIndex resolves a field by name within a class.
func fieldIndex(cd *cc.ClassDecl, name string) int32 {
	for i, f := range cd.Fields {
		if f.Name == name {
			return int32(i)
		}
	}
	return -1
}

func (c *compiler) expr(e cc.Expr) error {
	switch e := e.(type) {
	case *cc.IntLit:
		c.emit(OpConst, c.p.constant(e.Value), 0)
		return nil
	case *cc.StrLit:
		c.emit(OpConst, c.p.str(e.Value), 1) // B=1: index into the string table
		return nil
	case *cc.NullLit:
		c.emit(OpNull, 0, 0)
		return nil
	case *cc.This:
		c.emit(OpLoadThis, 0, 0)
		return nil
	case *cc.Paren:
		return c.expr(e.X)
	case *cc.Ident:
		if slot, ok := c.lookup(e.Name); ok {
			c.emit(OpLoadLocal, int32(slot), 0)
			return nil
		}
		if c.class != nil {
			if idx := fieldIndex(c.class, e.Name); idx >= 0 {
				c.emit(OpLoadThis, 0, 0)
				c.emit(OpLoadField, idx, 0)
				return nil
			}
		}
		return fmt.Errorf("vm: unresolved identifier %s", e.Name)
	case *cc.Unary:
		if err := c.expr(e.X); err != nil {
			return err
		}
		if e.Op == cc.Not {
			c.emit(OpNot, 0, 0)
		} else {
			c.emit(OpNeg, 0, 0)
		}
		return nil
	case *cc.Binary:
		return c.binary(e)
	case *cc.AssignExpr:
		return c.assign(e)
	case *cc.Call:
		return c.call(e)
	case *cc.MethodCall:
		if err := c.expr(e.Recv); err != nil {
			return err
		}
		for _, a := range e.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		// Each OpMethod site gets an inline-cache slot in C.
		at := c.emit(OpMethod, c.p.name(e.Name), int32(len(e.Args)))
		c.code[at].C = int32(c.p.methodSites)
		c.p.methodSites++
		return nil
	case *cc.DtorCall:
		if err := c.expr(e.Recv); err != nil {
			return err
		}
		id, err := c.classIdx(e.Class)
		if err != nil {
			return err
		}
		c.emit(OpDtor, id, 0)
		// Void expression: leave a value for the enclosing statement's
		// pop, like the void intrinsics do.
		c.emit(OpNull, 0, 0)
		return nil
	case *cc.FieldAccess:
		if err := c.expr(e.Recv); err != nil {
			return err
		}
		c.emit(OpLoadField, c.p.name(e.Name), 1) // B=1: resolve by name at run time
		return nil
	case *cc.Index:
		if err := c.expr(e.X); err != nil {
			return err
		}
		if err := c.expr(e.I); err != nil {
			return err
		}
		c.emit(OpIndexLoad, 0, 0)
		return nil
	case *cc.NewExpr:
		if e.Placement != nil {
			if err := c.expr(e.Placement); err != nil {
				return err
			}
		}
		for _, a := range e.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		op := OpNew
		if e.Placement != nil {
			op = OpPlacementNew
		}
		id, err := c.classIdx(e.Class)
		if err != nil {
			return err
		}
		at := c.emit(op, id, int32(len(e.Args)))
		c.code[at].C = c.site(e.Pos, e.Class)
		return nil
	case *cc.NewArray:
		if err := c.expr(e.Len); err != nil {
			return err
		}
		elem := int32(1)
		if e.Elem.Name == "int" {
			elem = cc.FieldSize
		}
		at := c.emit(OpNewArray, elem, 0)
		c.code[at].C = c.site(e.Pos, "")
		return nil
	}
	return fmt.Errorf("vm: cannot compile expression %T", e)
}

// binaryOps maps the eagerly evaluated binary operators to opcodes.
var binaryOps = map[cc.Kind]Op{
	cc.Plus: OpAdd, cc.Minus: OpSub, cc.Star: OpMul, cc.Slash: OpDiv,
	cc.Percent: OpMod, cc.Eq: OpEq, cc.Ne: OpNe, cc.Lt: OpLt,
	cc.Le: OpLe, cc.Gt: OpGt, cc.Ge: OpGe,
}

func (c *compiler) binary(e *cc.Binary) error {
	// Short-circuit forms compile to jumps.
	if e.Op == cc.AndAnd || e.Op == cc.OrOr {
		if err := c.expr(e.X); err != nil {
			return err
		}
		c.emit(OpDup, 0, 0)
		var j int
		if e.Op == cc.AndAnd {
			j = c.emit(OpJmpFalse, 0, 0)
		} else {
			j = c.emit(OpJmpTrue, 0, 0)
		}
		c.emit(OpPop, 0, 0)
		if err := c.expr(e.Y); err != nil {
			return err
		}
		c.patch(j, len(c.code))
		// Normalize to 0/1.
		c.emit(OpNot, 0, 0)
		c.emit(OpNot, 0, 0)
		return nil
	}
	if err := c.expr(e.X); err != nil {
		return err
	}
	if err := c.expr(e.Y); err != nil {
		return err
	}
	op, ok := binaryOps[e.Op]
	if !ok {
		return fmt.Errorf("vm: unknown binary operator")
	}
	c.emit(op, 0, 0)
	return nil
}

func (c *compiler) assign(e *cc.AssignExpr) error {
	switch lhs := e.LHS.(type) {
	case *cc.Paren:
		return c.assign(&cc.AssignExpr{LHS: lhs.X, RHS: e.RHS, Pos: e.Pos})
	case *cc.Ident:
		if err := c.expr(e.RHS); err != nil {
			return err
		}
		c.emit(OpDup, 0, 0) // assignment yields the value
		if slot, ok := c.lookup(lhs.Name); ok {
			c.emit(OpStoreLocal, int32(slot), 0)
			return nil
		}
		if c.class != nil {
			if idx := fieldIndex(c.class, lhs.Name); idx >= 0 {
				c.emit(OpLoadThis, 0, 0)
				c.emit(OpStoreField, idx, 0)
				return nil
			}
		}
		return fmt.Errorf("vm: unresolved identifier %s", lhs.Name)
	case *cc.FieldAccess:
		if err := c.expr(e.RHS); err != nil {
			return err
		}
		c.emit(OpDup, 0, 0)
		if err := c.expr(lhs.Recv); err != nil {
			return err
		}
		c.emit(OpStoreField, c.p.name(lhs.Name), 1)
		return nil
	case *cc.Index:
		if err := c.expr(e.RHS); err != nil {
			return err
		}
		c.emit(OpDup, 0, 0)
		if err := c.expr(lhs.X); err != nil {
			return err
		}
		if err := c.expr(lhs.I); err != nil {
			return err
		}
		c.emit(OpIndexStore, 0, 0)
		return nil
	}
	return fmt.Errorf("vm: cannot assign to %T", e.LHS)
}

func (c *compiler) call(e *cc.Call) error {
	if _, isIntrinsic := cc.Intrinsics[e.Func]; isIntrinsic {
		return c.intrinsic(e)
	}
	id, ok := c.p.FuncID[e.Func]
	if !ok {
		return fmt.Errorf("vm: unknown function %s", e.Func)
	}
	for _, a := range e.Args {
		if err := c.expr(a); err != nil {
			return err
		}
	}
	c.emit(OpCall, int32(id), int32(len(e.Args)))
	return nil
}

func (c *compiler) intrinsic(e *cc.Call) error {
	switch e.Func {
	case "print":
		for _, a := range e.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		c.emit(OpPrint, int32(len(e.Args)), 0)
		c.emit(OpNull, 0, 0) // intrinsics yield a value for uniform Pop
		return nil
	case "__work":
		if err := c.expr(e.Args[0]); err != nil {
			return err
		}
		c.emit(OpWork, 0, 0)
		c.emit(OpNull, 0, 0)
		return nil
	case "__pool_alloc":
		id, err := c.classIdx(e.Args[0].(*cc.Ident).Name)
		if err != nil {
			return err
		}
		at := c.emit(OpPoolAlloc, id, 0)
		c.code[at].C = c.site(e.Pos, e.Args[0].(*cc.Ident).Name)
		return nil
	case "__pool_free":
		id, err := c.classIdx(e.Args[0].(*cc.Ident).Name)
		if err != nil {
			return err
		}
		if err := c.expr(e.Args[1]); err != nil {
			return err
		}
		c.emit(OpPoolFree, id, 0)
		c.emit(OpNull, 0, 0)
		return nil
	case "__frame_alloc":
		id, err := c.classIdx(e.Args[0].(*cc.Ident).Name)
		if err != nil {
			return err
		}
		at := c.emit(OpFrameAlloc, id, 0)
		c.code[at].C = c.site(e.Pos, e.Args[0].(*cc.Ident).Name)
		return nil
	case "__frame_free":
		id, err := c.classIdx(e.Args[0].(*cc.Ident).Name)
		if err != nil {
			return err
		}
		if err := c.expr(e.Args[1]); err != nil {
			return err
		}
		c.emit(OpFrameFree, id, 0)
		c.emit(OpNull, 0, 0)
		return nil
	case "__pool_alloc_tl":
		id, err := c.classIdx(e.Args[0].(*cc.Ident).Name)
		if err != nil {
			return err
		}
		// B=1 selects the lock-free thread-private pool mode.
		at := c.emit(OpPoolAlloc, id, 1)
		c.code[at].C = c.site(e.Pos, e.Args[0].(*cc.Ident).Name)
		return nil
	case "__pool_free_tl":
		id, err := c.classIdx(e.Args[0].(*cc.Ident).Name)
		if err != nil {
			return err
		}
		if err := c.expr(e.Args[1]); err != nil {
			return err
		}
		c.emit(OpPoolFree, id, 1)
		c.emit(OpNull, 0, 0)
		return nil
	case "__pool_reserve":
		id, err := c.classIdx(e.Args[0].(*cc.Ident).Name)
		if err != nil {
			return err
		}
		if err := c.expr(e.Args[1]); err != nil {
			return err
		}
		at := c.emit(OpPoolReserve, id, 0)
		c.code[at].C = c.site(e.Pos, e.Args[0].(*cc.Ident).Name)
		c.emit(OpNull, 0, 0)
		return nil
	case "realloc":
		if err := c.expr(e.Args[0]); err != nil {
			return err
		}
		if err := c.expr(e.Args[1]); err != nil {
			return err
		}
		at := c.emit(OpRealloc, 0, 0)
		c.code[at].C = c.site(e.Pos, "")
		return nil
	case "__shadow_save":
		if err := c.expr(e.Args[0]); err != nil {
			return err
		}
		c.emit(OpShadowSave, 0, 0)
		return nil
	}
	return fmt.Errorf("vm: unknown intrinsic %s", e.Func)
}
