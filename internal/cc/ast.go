package cc

import "sync"

// Type is a MiniCC type: a base name plus pointer depth. Base names are
// "int", "char", "void", "uint" or a class name.
type Type struct {
	Name  string
	Stars int
}

// IsPointer reports whether the type has pointer depth.
func (t Type) IsPointer() bool { return t.Stars > 0 }

// IsClassPointer reports whether the type is a single pointer to a
// class (given the class table).
func (t Type) IsClassPointer(classes map[string]*ClassDecl) bool {
	_, ok := classes[t.Name]
	return ok && t.Stars == 1
}

// IsDataPointer reports whether the type is a pointer to a builtin data
// type (char*, int*), the array-buffer case of §5.2.
func (t Type) IsDataPointer() bool {
	return (t.Name == "char" || t.Name == "int") && t.Stars == 1
}

// String renders the type in source form.
func (t Type) String() string {
	s := t.Name
	for i := 0; i < t.Stars; i++ {
		s += "*"
	}
	return s
}

// Program is a parsed translation unit.
type Program struct {
	Decls []Decl

	// Filled by Analyze:
	Classes map[string]*ClassDecl
	Funcs   map[string]*FuncDecl
	// UsesThreads reports whether any spawn statement occurs; the
	// pre-processor elides pool locks when it is false (§5.1).
	UsesThreads bool

	// One result derived from the tree as last analyzed; see Memo.
	memoMu  sync.Mutex
	memoKey any
	memoVal any
}

// Memo returns the value the program holds under key, a non-nil
// comparable value, calling build to compute and keep it when the
// program holds none. The program has one slot: a value under another
// key is replaced. build must not call Memo on the same program.
//
// Analyze empties the slot, so a value describes the tree as Analyze
// last saw it. build may derive anything from the analyzed tree; the
// value must be read-only once built; and code that mutates the tree
// must call Analyze again before anyone next calls Memo. The rewriter
// in internal/core reads its analyses before it mutates the tree and
// re-analyzes after.
func (p *Program) Memo(key any, build func() any) any {
	p.memoMu.Lock()
	defer p.memoMu.Unlock()
	if p.memoKey != key {
		p.memoKey, p.memoVal = key, build()
	}
	return p.memoVal
}

// Decl is a top-level declaration.
type Decl interface{ decl() }

// ClassDecl declares a class.
type ClassDecl struct {
	Name    string
	Fields  []*Field
	Methods []*Method
	Pos     Pos

	// Size in bytes (4 per field, 32-bit model); set by Analyze.
	Size int64
}

func (*ClassDecl) decl() {}

// FieldByName returns the named field, or nil.
func (c *ClassDecl) FieldByName(name string) *Field {
	for _, f := range c.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// MethodByName returns the named plain method, or nil.
func (c *ClassDecl) MethodByName(name string) *Method {
	for _, m := range c.Methods {
		if m.Kind == PlainMethod && m.Name == name {
			return m
		}
	}
	return nil
}

// method returns the first method of the given kind, or nil.
func (c *ClassDecl) method(kind MethodKind) *Method {
	for _, m := range c.Methods {
		if m.Kind == kind {
			return m
		}
	}
	return nil
}

// Ctor returns the constructor, or nil.
func (c *ClassDecl) Ctor() *Method { return c.method(Ctor) }

// Dtor returns the destructor, or nil.
func (c *ClassDecl) Dtor() *Method { return c.method(Dtor) }

// OperatorNew returns the class's operator new, or nil.
func (c *ClassDecl) OperatorNew() *Method { return c.method(OpNew) }

// OperatorDelete returns the class's operator delete, or nil.
func (c *ClassDecl) OperatorDelete() *Method { return c.method(OpDelete) }

// Access is a member access level. It is parsed and printed but carries
// no semantics in MiniCC.
type Access int

// Access levels.
const (
	Public Access = iota
	Private
)

// Field is a class data member.
type Field struct {
	Type   Type
	Name   string
	Access Access
	Pos    Pos

	// Offset within the object; set by Analyze.
	Offset int64
	// Shadow marks fields synthesized by the pre-processor (the shadow
	// pointers of §3.2).
	Shadow bool
	// ShadowOf names the field this shadow mirrors (when Shadow).
	ShadowOf string
}

// MethodKind distinguishes the member function flavors.
type MethodKind int

// Method kinds.
const (
	PlainMethod MethodKind = iota
	Ctor
	Dtor
	OpNew
	OpDelete
)

// Method is a member function with an inline body.
type Method struct {
	Kind   MethodKind
	Ret    Type
	Name   string // empty for Ctor/Dtor/operators
	Params []*Param
	Body   *Block
	Access Access
	Pos    Pos

	// Class is the owning class; set by the parser.
	Class *ClassDecl
	// Synthetic marks member functions generated by the pre-processor.
	Synthetic bool
}

// FuncDecl is a free function.
type FuncDecl struct {
	Ret    Type
	Name   string
	Params []*Param
	Body   *Block
	Pos    Pos
}

func (*FuncDecl) decl() {}

// Param is a function or method parameter.
type Param struct {
	Type Type
	Name string
	Pos  Pos
}

// --- Statements.

// Stmt is a statement node.
type Stmt interface{ stmt() }

// Block is a brace-enclosed statement list.
type Block struct {
	Stmts []Stmt
	Pos   Pos
}

// VarDecl declares (and optionally initializes) a local variable.
type VarDecl struct {
	Type Type
	Name string
	Init Expr // may be nil
	Pos  Pos
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// If is a conditional.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Pos  Pos
}

// While is a loop.
type While struct {
	Cond Expr
	Body Stmt
	Pos  Pos
}

// For is a C-style loop; Init may be a VarDecl or ExprStmt, Cond and
// Post may be nil.
type For struct {
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
	Pos  Pos
}

// Return exits the enclosing function; X may be nil.
type Return struct {
	X   Expr
	Pos Pos
}

// DeleteStmt is `delete x;` or `delete[] x;`.
type DeleteStmt struct {
	X     Expr
	Array bool
	Pos   Pos
}

// Spawn starts a new thread running a void free function.
type Spawn struct {
	Func string
	Args []Expr
	Pos  Pos
}

// Join waits for all spawned threads.
type Join struct {
	Pos Pos
}

func (*Block) stmt()      {}
func (*VarDecl) stmt()    {}
func (*ExprStmt) stmt()   {}
func (*If) stmt()         {}
func (*While) stmt()      {}
func (*For) stmt()        {}
func (*Return) stmt()     {}
func (*DeleteStmt) stmt() {}
func (*Spawn) stmt()      {}
func (*Join) stmt()       {}

// --- Expressions.

// Expr is an expression node.
type Expr interface{ expr() }

// IdentKind classifies what a bare identifier resolved to.
type IdentKind int

// Identifier kinds (set by Analyze).
const (
	UnresolvedIdent IdentKind = iota
	LocalIdent
	ParamIdent
	FieldIdent // implicit this-> member access
)

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   Pos
}

// StrLit is a string literal (print only).
type StrLit struct {
	Value string
	Pos   Pos
}

// NullLit is the null pointer literal.
type NullLit struct {
	Pos Pos
}

// Ident is a bare identifier.
type Ident struct {
	Name string
	Pos  Pos

	// Kind and Field are set by Analyze.
	Kind  IdentKind
	Field *Field // when Kind == FieldIdent
}

// This is the receiver reference inside a method.
type This struct {
	Pos Pos
}

// Unary is !x or -x.
type Unary struct {
	Op  Kind // Not or Minus
	X   Expr
	Pos Pos
}

// Binary is a binary operation.
type Binary struct {
	Op   Kind
	X, Y Expr
	Pos  Pos
}

// AssignExpr assigns RHS to LHS and yields the value.
type AssignExpr struct {
	LHS Expr
	RHS Expr
	Pos Pos
}

// Call invokes a free function or intrinsic.
type Call struct {
	Func string
	Args []Expr
	Pos  Pos
}

// MethodCall invokes a method on a class-pointer receiver.
type MethodCall struct {
	Recv Expr
	Name string
	Args []Expr
	Pos  Pos
}

// DtorCall is an explicit destructor call `p->~T()`, as emitted by the
// rewriter for logical deletion.
type DtorCall struct {
	Recv  Expr
	Class string
	Pos   Pos
}

// FieldAccess is `recv->name` (or `recv.name`; MiniCC treats both as
// pointer access).
type FieldAccess struct {
	Recv Expr
	Name string
	Pos  Pos

	// Field is resolved by Analyze when the receiver type is known.
	Field *Field
}

// Index is buffer indexing `buf[i]`.
type Index struct {
	X   Expr
	I   Expr
	Pos Pos
}

// NewExpr is `new T(args)` or placement `new(place) T(args)`.
type NewExpr struct {
	Class     string
	Args      []Expr
	Placement Expr // nil for ordinary new
	Pos       Pos
}

// NewArray is `new char[n]` / `new int[n]`.
type NewArray struct {
	Elem Type // char or int, Stars 0
	Len  Expr
	Pos  Pos
}

// Paren preserves explicit grouping for the printer.
type Paren struct {
	X   Expr
	Pos Pos
}

func (*IntLit) expr()      {}
func (*StrLit) expr()      {}
func (*NullLit) expr()     {}
func (*Ident) expr()       {}
func (*This) expr()        {}
func (*Unary) expr()       {}
func (*Binary) expr()      {}
func (*AssignExpr) expr()  {}
func (*Call) expr()        {}
func (*MethodCall) expr()  {}
func (*DtorCall) expr()    {}
func (*FieldAccess) expr() {}
func (*Index) expr()       {}
func (*NewExpr) expr()     {}
func (*NewArray) expr()    {}
func (*Paren) expr()       {}
