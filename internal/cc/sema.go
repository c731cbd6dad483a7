package cc

import "fmt"

// FieldSize is the storage of one field in bytes. MiniCC uses the
// paper's 32-bit model: ints and pointers are 4 bytes, so the example
// tree node (two child pointers plus 12 bytes of data) is 20 bytes and
// grows to 28 when the two shadow pointers are added.
const FieldSize = 4

// Intrinsics are the runtime functions the pre-processor's output may
// call. __pool_alloc/__pool_free are the generalized structure pool of
// §3.2; realloc/__shadow_save are the data-type array handling of §5.2.
// The escape-analysis rewrites (internal/vet, internal/core) add five
// more: __frame_alloc/__frame_free move a proven non-escaping object
// into the creating function's frame region, __pool_alloc_tl and
// __pool_free_tl are the lock-free thread-private pool entry points for
// classes proven thread-local, and __pool_reserve pre-sizes a class
// pool from a statically inferred allocation bound.
var Intrinsics = map[string]Type{
	"print":           {Name: "void"},
	"realloc":         {Name: "void", Stars: 1},
	"__pool_alloc":    {Name: "void", Stars: 1},
	"__pool_free":     {Name: "void"},
	"__shadow_save":   {Name: "void", Stars: 1},
	"__work":          {Name: "void"},
	"__frame_alloc":   {Name: "void", Stars: 1},
	"__frame_free":    {Name: "void"},
	"__pool_alloc_tl": {Name: "void", Stars: 1},
	"__pool_free_tl":  {Name: "void"},
	"__pool_reserve":  {Name: "void"},
}

// Analyze resolves names, computes class layouts, classifies
// identifiers (local / parameter / implicit field), infers expression
// types for the checks the rewriter depends on, and records whether the
// program spawns threads. It must be called before Rewrite, Print on
// rewritten output, or interpretation. It drops the value Memo holds.
func Analyze(prog *Program) error {
	prog.memoMu.Lock()
	prog.memoKey, prog.memoVal = nil, nil
	prog.memoMu.Unlock()
	prog.Classes = make(map[string]*ClassDecl)
	prog.Funcs = make(map[string]*FuncDecl)
	prog.UsesThreads = false
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ClassDecl:
			if _, dup := prog.Classes[d.Name]; dup {
				return errf(d.Pos, "duplicate class %s", d.Name)
			}
			for _, m := range d.Methods {
				if m.Kind != PlainMethod {
					continue
				}
				if _, isIntrinsic := Intrinsics[m.Name]; isIntrinsic {
					return errf(m.Pos, "method %s::%s collides with a runtime intrinsic", d.Name, m.Name)
				}
			}
			prog.Classes[d.Name] = d
		case *FuncDecl:
			if _, dup := prog.Funcs[d.Name]; dup {
				return errf(d.Pos, "duplicate function %s", d.Name)
			}
			if _, isIntrinsic := Intrinsics[d.Name]; isIntrinsic {
				return errf(d.Pos, "function %s collides with a runtime intrinsic", d.Name)
			}
			prog.Funcs[d.Name] = d
		}
	}
	a := &analyzer{prog: prog}
	for _, d := range prog.Decls {
		if cd, ok := d.(*ClassDecl); ok {
			if err := a.layoutClass(cd); err != nil {
				return err
			}
		}
	}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ClassDecl:
			for _, m := range d.Methods {
				if err := a.checkMethod(m); err != nil {
					return err
				}
			}
		case *FuncDecl:
			if err := a.checkFunc(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// MustAnalyze panics on analysis errors (tests and examples).
func MustAnalyze(prog *Program) *Program {
	if err := Analyze(prog); err != nil {
		panic(err)
	}
	return prog
}

type analyzer struct {
	prog *Program
	// scope is the current lexical scope chain.
	scopes []map[string]Type
	// method context:
	class *ClassDecl // nil in free functions
	ret   Type
}

func (a *analyzer) layoutClass(cd *ClassDecl) error {
	seen := map[string]bool{}
	var off int64
	for _, f := range cd.Fields {
		if seen[f.Name] {
			return errf(f.Pos, "duplicate field %s in class %s", f.Name, cd.Name)
		}
		seen[f.Name] = true
		if err := a.checkTypeExists(f.Type, f.Pos); err != nil {
			return err
		}
		f.Offset = off
		off += FieldSize
	}
	cd.Size = off
	if cd.Size == 0 {
		cd.Size = FieldSize // empty classes still occupy storage
	}
	return nil
}

func (a *analyzer) checkTypeExists(t Type, pos Pos) error {
	switch t.Name {
	case "int", "char", "void", "uint":
		return nil
	}
	if _, ok := a.prog.Classes[t.Name]; !ok {
		return errf(pos, "unknown type %s", t.Name)
	}
	return nil
}

func (a *analyzer) push() { a.scopes = append(a.scopes, map[string]Type{}) }
func (a *analyzer) pop()  { a.scopes = a.scopes[:len(a.scopes)-1] }

func (a *analyzer) declare(name string, t Type, pos Pos) error {
	top := a.scopes[len(a.scopes)-1]
	if _, dup := top[name]; dup {
		return errf(pos, "redeclaration of %s", name)
	}
	top[name] = t
	return nil
}

func (a *analyzer) lookup(name string) (Type, bool) {
	for i := len(a.scopes) - 1; i >= 0; i-- {
		if t, ok := a.scopes[i][name]; ok {
			return t, true
		}
	}
	return Type{}, false
}

func (a *analyzer) checkFunc(fd *FuncDecl) error {
	a.class = nil
	a.ret = fd.Ret
	a.scopes = nil
	a.push()
	for _, p := range fd.Params {
		if err := a.checkTypeExists(p.Type, p.Pos); err != nil {
			return err
		}
		if err := a.declare(p.Name, p.Type, p.Pos); err != nil {
			return err
		}
	}
	defer a.pop()
	return a.checkBlock(fd.Body)
}

func (a *analyzer) checkMethod(m *Method) error {
	a.class = m.Class
	a.ret = m.Ret
	a.scopes = nil
	a.push()
	for _, p := range m.Params {
		if err := a.checkTypeExists(p.Type, p.Pos); err != nil {
			return err
		}
		if err := a.declare(p.Name, p.Type, p.Pos); err != nil {
			return err
		}
	}
	defer a.pop()
	return a.checkBlock(m.Body)
}

func (a *analyzer) checkBlock(b *Block) error {
	a.push()
	defer a.pop()
	for _, s := range b.Stmts {
		if err := a.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (a *analyzer) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *Block:
		return a.checkBlock(s)
	case *VarDecl:
		if err := a.checkTypeExists(s.Type, s.Pos); err != nil {
			return err
		}
		if s.Init != nil {
			if _, err := a.checkExpr(s.Init); err != nil {
				return err
			}
		}
		return a.declare(s.Name, s.Type, s.Pos)
	case *ExprStmt:
		_, err := a.checkExpr(s.X)
		return err
	case *If:
		if _, err := a.checkExpr(s.Cond); err != nil {
			return err
		}
		if err := a.checkStmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return a.checkStmt(s.Else)
		}
		return nil
	case *While:
		if _, err := a.checkExpr(s.Cond); err != nil {
			return err
		}
		return a.checkStmt(s.Body)
	case *For:
		a.push()
		defer a.pop()
		if s.Init != nil {
			if err := a.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if _, err := a.checkExpr(s.Cond); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if _, err := a.checkExpr(s.Post); err != nil {
				return err
			}
		}
		return a.checkStmt(s.Body)
	case *Return:
		if s.X != nil {
			_, err := a.checkExpr(s.X)
			return err
		}
		return nil
	case *DeleteStmt:
		t, err := a.checkExpr(s.X)
		if err != nil {
			return err
		}
		if !t.IsPointer() && t.Name != "null" {
			return errf(s.Pos, "delete of non-pointer %s", t)
		}
		return nil
	case *Spawn:
		prog := a.prog
		prog.UsesThreads = true
		fd, ok := prog.Funcs[s.Func]
		if !ok {
			return errf(s.Pos, "spawn of unknown function %s", s.Func)
		}
		if len(fd.Params) != len(s.Args) {
			return errf(s.Pos, "spawn %s: %d args, want %d", s.Func, len(s.Args), len(fd.Params))
		}
		for _, arg := range s.Args {
			if _, err := a.checkExpr(arg); err != nil {
				return err
			}
		}
		return nil
	case *Join:
		return nil
	}
	return fmt.Errorf("cc: unknown statement %T", s)
}

// checkExpr resolves and types an expression. The "null" pseudo-type is
// assignable to any pointer; "void*" is assignable to and from any
// pointer (the C convention the runtime intrinsics rely on).
func (a *analyzer) checkExpr(e Expr) (Type, error) {
	switch e := e.(type) {
	case *IntLit:
		return Type{Name: "int"}, nil
	case *StrLit:
		return Type{Name: "string"}, nil
	case *NullLit:
		return Type{Name: "null", Stars: 1}, nil
	case *This:
		if a.class == nil {
			return Type{}, errf(e.Pos, "'this' outside a method")
		}
		return Type{Name: a.class.Name, Stars: 1}, nil
	case *Ident:
		if t, ok := a.lookup(e.Name); ok {
			e.Kind = LocalIdent
			return t, nil
		}
		if a.class != nil {
			if f := a.class.FieldByName(e.Name); f != nil {
				e.Kind = FieldIdent
				e.Field = f
				return f.Type, nil
			}
		}
		return Type{}, errf(e.Pos, "undefined identifier %s", e.Name)
	case *Paren:
		return a.checkExpr(e.X)
	case *Unary:
		if _, err := a.checkExpr(e.X); err != nil {
			return Type{}, err
		}
		return Type{Name: "int"}, nil
	case *Binary:
		if _, err := a.checkExpr(e.X); err != nil {
			return Type{}, err
		}
		if _, err := a.checkExpr(e.Y); err != nil {
			return Type{}, err
		}
		return Type{Name: "int"}, nil
	case *AssignExpr:
		lt, err := a.checkExpr(e.LHS)
		if err != nil {
			return Type{}, err
		}
		if !isLvalue(e.LHS) {
			return Type{}, errf(e.Pos, "cannot assign to this expression")
		}
		rt, err := a.checkExpr(e.RHS)
		if err != nil {
			return Type{}, err
		}
		if !assignable(lt, rt) {
			return Type{}, errf(e.Pos, "cannot assign %s to %s", rt, lt)
		}
		return lt, nil
	case *Call:
		if ret, ok := Intrinsics[e.Func]; ok {
			return a.checkIntrinsic(e, ret)
		}
		fd, ok := a.prog.Funcs[e.Func]
		if !ok {
			return Type{}, errf(e.Pos, "call of unknown function %s", e.Func)
		}
		if len(e.Args) != len(fd.Params) {
			return Type{}, errf(e.Pos, "%s: %d args, want %d", e.Func, len(e.Args), len(fd.Params))
		}
		for i, arg := range e.Args {
			at, err := a.checkExpr(arg)
			if err != nil {
				return Type{}, err
			}
			if !assignable(fd.Params[i].Type, at) {
				return Type{}, errf(e.Pos, "%s: arg %d is %s, want %s", e.Func, i+1, at, fd.Params[i].Type)
			}
		}
		return fd.Ret, nil
	case *MethodCall:
		rt, err := a.checkExpr(e.Recv)
		if err != nil {
			return Type{}, err
		}
		cd, ok := a.prog.Classes[rt.Name]
		if !ok || rt.Stars != 1 {
			return Type{}, errf(e.Pos, "method call on non-class-pointer %s", rt)
		}
		m := cd.MethodByName(e.Name)
		if m == nil {
			return Type{}, errf(e.Pos, "class %s has no method %s", cd.Name, e.Name)
		}
		if len(e.Args) != len(m.Params) {
			return Type{}, errf(e.Pos, "%s::%s: %d args, want %d", cd.Name, e.Name, len(e.Args), len(m.Params))
		}
		for _, arg := range e.Args {
			if _, err := a.checkExpr(arg); err != nil {
				return Type{}, err
			}
		}
		return m.Ret, nil
	case *DtorCall:
		rt, err := a.checkExpr(e.Recv)
		if err != nil {
			return Type{}, err
		}
		if rt.Name != e.Class || rt.Stars != 1 {
			return Type{}, errf(e.Pos, "destructor ~%s called on %s", e.Class, rt)
		}
		return Type{Name: "void"}, nil
	case *FieldAccess:
		rt, err := a.checkExpr(e.Recv)
		if err != nil {
			return Type{}, err
		}
		cd, ok := a.prog.Classes[rt.Name]
		if !ok || rt.Stars != 1 {
			return Type{}, errf(e.Pos, "field access on non-class-pointer %s", rt)
		}
		f := cd.FieldByName(e.Name)
		if f == nil {
			return Type{}, errf(e.Pos, "class %s has no field %s", cd.Name, e.Name)
		}
		e.Field = f
		return f.Type, nil
	case *Index:
		xt, err := a.checkExpr(e.X)
		if err != nil {
			return Type{}, err
		}
		if !xt.IsPointer() {
			return Type{}, errf(e.Pos, "indexing non-pointer %s", xt)
		}
		if _, err := a.checkExpr(e.I); err != nil {
			return Type{}, err
		}
		return Type{Name: xt.Name, Stars: xt.Stars - 1}, nil
	case *NewExpr:
		cd, ok := a.prog.Classes[e.Class]
		if !ok {
			return Type{}, errf(e.Pos, "new of unknown class %s", e.Class)
		}
		if e.Placement != nil {
			if _, err := a.checkExpr(e.Placement); err != nil {
				return Type{}, err
			}
		}
		ctor := cd.Ctor()
		nparams := 0
		if ctor != nil {
			nparams = len(ctor.Params)
		}
		if len(e.Args) != nparams {
			return Type{}, errf(e.Pos, "new %s: %d args, constructor takes %d", e.Class, len(e.Args), nparams)
		}
		for _, arg := range e.Args {
			if _, err := a.checkExpr(arg); err != nil {
				return Type{}, err
			}
		}
		return Type{Name: e.Class, Stars: 1}, nil
	case *NewArray:
		if _, err := a.checkExpr(e.Len); err != nil {
			return Type{}, err
		}
		return Type{Name: e.Elem.Name, Stars: 1}, nil
	}
	return Type{}, fmt.Errorf("cc: unknown expression %T", e)
}

// checkIntrinsic validates runtime intrinsic calls.
func (a *analyzer) checkIntrinsic(e *Call, ret Type) (Type, error) {
	switch e.Func {
	case "print":
		for _, arg := range e.Args {
			if _, err := a.checkExpr(arg); err != nil {
				return Type{}, err
			}
		}
	case "realloc":
		if len(e.Args) != 2 {
			return Type{}, errf(e.Pos, "realloc takes (ptr, size)")
		}
		for _, arg := range e.Args {
			if _, err := a.checkExpr(arg); err != nil {
				return Type{}, err
			}
		}
	case "__pool_alloc":
		if len(e.Args) != 1 {
			return Type{}, errf(e.Pos, "__pool_alloc takes a class name")
		}
		if err := a.classNameArg(e.Args[0]); err != nil {
			return Type{}, err
		}
	case "__pool_free":
		if len(e.Args) != 2 {
			return Type{}, errf(e.Pos, "__pool_free takes (class name, ptr)")
		}
		if err := a.classNameArg(e.Args[0]); err != nil {
			return Type{}, err
		}
		if _, err := a.checkExpr(e.Args[1]); err != nil {
			return Type{}, err
		}
	case "__frame_alloc", "__pool_alloc_tl":
		if len(e.Args) != 1 {
			return Type{}, errf(e.Pos, "%s takes a class name", e.Func)
		}
		if err := a.classNameArg(e.Args[0]); err != nil {
			return Type{}, err
		}
	case "__frame_free", "__pool_free_tl":
		if len(e.Args) != 2 {
			return Type{}, errf(e.Pos, "%s takes (class name, ptr)", e.Func)
		}
		if err := a.classNameArg(e.Args[0]); err != nil {
			return Type{}, err
		}
		if _, err := a.checkExpr(e.Args[1]); err != nil {
			return Type{}, err
		}
	case "__pool_reserve":
		if len(e.Args) != 2 {
			return Type{}, errf(e.Pos, "__pool_reserve takes (class name, count)")
		}
		if err := a.classNameArg(e.Args[0]); err != nil {
			return Type{}, err
		}
		if _, err := a.checkExpr(e.Args[1]); err != nil {
			return Type{}, err
		}
	case "__shadow_save":
		if len(e.Args) != 1 {
			return Type{}, errf(e.Pos, "__shadow_save takes a pointer")
		}
		if _, err := a.checkExpr(e.Args[0]); err != nil {
			return Type{}, err
		}
	case "__work":
		if len(e.Args) != 1 {
			return Type{}, errf(e.Pos, "__work takes a cycle count")
		}
		if _, err := a.checkExpr(e.Args[0]); err != nil {
			return Type{}, err
		}
	}
	return ret, nil
}

// classNameArg verifies that an intrinsic argument is a bare class name.
func (a *analyzer) classNameArg(e Expr) error {
	id, ok := e.(*Ident)
	if !ok {
		return errf(exprPos(e), "intrinsic argument must be a class name")
	}
	if _, ok := a.prog.Classes[id.Name]; !ok {
		return errf(id.Pos, "unknown class %s", id.Name)
	}
	return nil
}

// isLvalue reports whether e can be assigned to.
func isLvalue(e Expr) bool {
	switch e := e.(type) {
	case *Ident:
		return true
	case *FieldAccess:
		return true
	case *Index:
		return true
	case *Paren:
		return isLvalue(e.X)
	}
	return false
}

// assignable implements MiniCC's loose assignment compatibility.
func assignable(dst, src Type) bool {
	if dst == src {
		return true
	}
	if src.Name == "null" && dst.IsPointer() {
		return true
	}
	// void* converts to and from any pointer, C-style.
	if dst.IsPointer() && src == (Type{Name: "void", Stars: 1}) {
		return true
	}
	if src.IsPointer() && dst == (Type{Name: "void", Stars: 1}) {
		return true
	}
	// int, uint and char scalars interconvert, as in C.
	if isScalar(dst) && isScalar(src) {
		return true
	}
	// char* and int* interchange with each other for realloc results.
	if dst.IsDataPointer() && src.IsDataPointer() {
		return true
	}
	return false
}

// isScalar reports whether t is a non-pointer arithmetic type.
func isScalar(t Type) bool {
	if t.Stars != 0 {
		return false
	}
	return t.Name == "int" || t.Name == "uint" || t.Name == "char"
}

// exprPos extracts a position from any expression.
func exprPos(e Expr) Pos {
	switch e := e.(type) {
	case *IntLit:
		return e.Pos
	case *StrLit:
		return e.Pos
	case *NullLit:
		return e.Pos
	case *Ident:
		return e.Pos
	case *This:
		return e.Pos
	case *Unary:
		return e.Pos
	case *Binary:
		return e.Pos
	case *AssignExpr:
		return e.Pos
	case *Call:
		return e.Pos
	case *MethodCall:
		return e.Pos
	case *DtorCall:
		return e.Pos
	case *FieldAccess:
		return e.Pos
	case *Index:
		return e.Pos
	case *NewExpr:
		return e.Pos
	case *NewArray:
		return e.Pos
	case *Paren:
		return e.Pos
	}
	return Pos{}
}
