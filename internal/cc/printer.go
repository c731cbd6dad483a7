package cc

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a program back to MiniCC source. The output of the
// Amplify rewriter is printed with this and can be re-parsed; golden
// tests compare it textually.
func Print(prog *Program) string {
	pr := &printer{}
	for i, d := range prog.Decls {
		if i > 0 {
			pr.nl()
		}
		switch d := d.(type) {
		case *ClassDecl:
			pr.class(d)
		case *FuncDecl:
			pr.fun(d)
		}
	}
	return pr.b.String()
}

// printer streams source into one builder: every node, down to the
// leaves of an expression, writes its text in place rather than
// returning a string for its parent to copy.
type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) nl() { p.b.WriteByte('\n') }

// put writes each part in turn.
func (p *printer) put(parts ...string) {
	for _, s := range parts {
		p.b.WriteString(s)
	}
}

// quote writes s as a string literal. It escapes only what the lexer
// unescapes — newline, tab, backslash and double quote — and writes
// every other byte raw, so any literal the lexer read prints back to
// one it reads the same.
func (p *printer) quote(s string) {
	p.b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			p.b.WriteString(`\n`)
		case '\t':
			p.b.WriteString(`\t`)
		case '\\', '"':
			p.b.WriteByte('\\')
			p.b.WriteByte(c)
		default:
			p.b.WriteByte(c)
		}
	}
	p.b.WriteByte('"')
}

// pad writes the indentation of a new line.
func (p *printer) pad() {
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
}

// line writes one whole indented line.
func (p *printer) line(parts ...string) {
	p.pad()
	p.put(parts...)
	p.nl()
}

func (p *printer) typ(t Type) {
	p.b.WriteString(t.Name)
	for i := 0; i < t.Stars; i++ {
		p.b.WriteByte('*')
	}
}

func (p *printer) class(cd *ClassDecl) {
	p.line("class ", cd.Name, " {")
	p.indent++
	access := Private
	first := true
	setAccess := func(a Access) {
		if a != access || first {
			p.indent--
			if a == Public {
				p.line("public:")
			} else {
				p.line("private:")
			}
			p.indent++
			access = a
		}
		first = false
	}
	// Methods first, then fields — the layout of the paper's listings.
	for _, m := range cd.Methods {
		setAccess(m.Access)
		p.method(cd, m)
	}
	for _, f := range cd.Fields {
		setAccess(f.Access)
		p.pad()
		p.typ(f.Type)
		p.put(" ", f.Name, ";")
		if f.Shadow {
			p.put(" // shadow of ", f.ShadowOf, " (added by Amplify)")
		}
		p.nl()
	}
	p.indent--
	p.line("};")
}

func (p *printer) method(cd *ClassDecl, m *Method) {
	note := ""
	if m.Synthetic {
		note = " // added by Amplify"
	}
	p.pad()
	switch m.Kind {
	case Ctor:
		p.put(cd.Name)
		p.params(m.Params)
	case Dtor:
		p.put("~", cd.Name, "() ")
	case OpNew:
		p.typ(m.Ret)
		p.put(" operator new")
		p.params(m.Params)
	case OpDelete:
		p.typ(m.Ret)
		p.put(" operator delete")
		p.params(m.Params)
	default:
		p.typ(m.Ret)
		p.put(" ", m.Name)
		p.params(m.Params)
	}
	p.blockInline(m.Body, note)
}

func (p *printer) fun(fd *FuncDecl) {
	p.pad()
	p.typ(fd.Ret)
	p.put(" ", fd.Name)
	p.params(fd.Params)
	p.blockInline(fd.Body, "")
}

// params writes a parenthesized parameter list and the space after it.
func (p *printer) params(ps []*Param) {
	p.b.WriteByte('(')
	for i, pp := range ps {
		if i > 0 {
			p.put(", ")
		}
		p.typ(pp.Type)
		p.put(" ", pp.Name)
	}
	p.put(") ")
}

// blockInline prints "{ ... }" starting on the current line.
func (p *printer) blockInline(b *Block, note string) {
	p.put("{", note, "\n")
	p.indent++
	for _, s := range b.Stmts {
		p.stmt(s)
	}
	p.indent--
	p.line("}")
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		p.pad()
		p.blockInline(s, "")
	case *VarDecl:
		p.pad()
		p.varDecl(s)
		p.put(";\n")
	case *ExprStmt:
		p.pad()
		p.wrapped("", s.X, ";\n")
	case *If:
		p.pad()
		p.wrapped("if (", s.Cond, ") ")
		p.compound(s.Then)
		if s.Else != nil {
			p.pad()
			p.put("else ")
			p.compound(s.Else)
		}
	case *While:
		p.pad()
		p.wrapped("while (", s.Cond, ") ")
		p.compound(s.Body)
	case *For:
		p.pad()
		p.put("for (")
		switch is := s.Init.(type) {
		case *VarDecl:
			p.varDecl(is)
		case *ExprStmt:
			p.expr(is.X)
		}
		p.put("; ")
		if s.Cond != nil {
			p.expr(s.Cond)
		}
		p.put("; ")
		if s.Post != nil {
			p.expr(s.Post)
		}
		p.put(") ")
		p.compound(s.Body)
	case *Return:
		if s.X != nil {
			p.pad()
			p.wrapped("return ", s.X, ";\n")
		} else {
			p.line("return;")
		}
	case *DeleteStmt:
		p.pad()
		if s.Array {
			p.wrapped("delete[] ", s.X, ";\n")
		} else {
			p.wrapped("delete ", s.X, ";\n")
		}
	case *Spawn:
		p.pad()
		p.put("spawn ", s.Func, "(")
		p.exprList(s.Args)
		p.put(");\n")
	case *Join:
		p.line("join;")
	}
}

// varDecl writes `type name` and its initializer, if any.
func (p *printer) varDecl(vd *VarDecl) {
	p.typ(vd.Type)
	p.put(" ", vd.Name)
	if vd.Init != nil {
		p.wrapped(" = ", vd.Init, "")
	}
}

// compound prints a statement that follows a control header, bracing
// single statements for readability.
func (p *printer) compound(s Stmt) {
	if b, ok := s.(*Block); ok {
		p.blockInline(b, "")
		return
	}
	p.put("{\n")
	p.indent++
	p.stmt(s)
	p.indent--
	p.line("}")
}

func (p *printer) exprList(es []Expr) {
	for i, e := range es {
		if i > 0 {
			p.put(", ")
		}
		p.expr(e)
	}
}

// expr renders an expression, parenthesizing nested binaries
// conservatively.
func (p *printer) expr(e Expr) {
	switch e := e.(type) {
	case *IntLit:
		var buf [20]byte
		p.b.Write(strconv.AppendInt(buf[:0], e.Value, 10))
	case *StrLit:
		p.quote(e.Value)
	case *NullLit:
		p.put("null")
	case *Ident:
		p.put(e.Name)
	case *This:
		p.put("this")
	case *Paren:
		p.wrapped("(", e.X, ")")
	case *Unary:
		if e.Op == Minus {
			p.put("-")
		} else {
			p.put("!")
		}
		p.operand(e.X)
	case *Binary:
		p.operand(e.X)
		p.put(" ", opText(e.Op), " ")
		p.operand(e.Y)
	case *AssignExpr:
		p.expr(e.LHS)
		p.wrapped(" = ", e.RHS, "")
	case *Call:
		p.put(e.Func, "(")
		p.exprList(e.Args)
		p.put(")")
	case *MethodCall:
		p.operand(e.Recv)
		p.put("->", e.Name, "(")
		p.exprList(e.Args)
		p.put(")")
	case *DtorCall:
		p.operand(e.Recv)
		p.put("->~", e.Class, "()")
	case *FieldAccess:
		p.operand(e.Recv)
		p.put("->", e.Name)
	case *Index:
		p.operand(e.X)
		p.wrapped("[", e.I, "]")
	case *NewExpr:
		if e.Placement != nil {
			p.wrapped("new(", e.Placement, ") ")
			p.put(e.Class, "(")
		} else {
			p.put("new ", e.Class, "(")
		}
		p.exprList(e.Args)
		p.put(")")
	case *NewArray:
		p.put("new ", e.Elem.Name)
		p.wrapped("[", e.Len, "]")
	default:
		fmt.Fprintf(&p.b, "/*?%T*/", e)
	}
}

// operand wraps composite subexpressions in parentheses.
func (p *printer) operand(e Expr) {
	switch e.(type) {
	case *Binary, *AssignExpr, *Unary:
		p.wrapped("(", e, ")")
	default:
		p.expr(e)
	}
}

// wrapped writes e between before and after.
func (p *printer) wrapped(before string, e Expr, after string) {
	p.b.WriteString(before)
	p.expr(e)
	p.b.WriteString(after)
}

func opText(k Kind) string {
	switch k {
	case Eq:
		return "=="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Plus:
		return "+"
	case Minus:
		return "-"
	case Star:
		return "*"
	case Slash:
		return "/"
	case Percent:
		return "%"
	case AndAnd:
		return "&&"
	case OrOr:
		return "||"
	}
	return "?"
}
