package cc

// Test-only oracles: the lexer and printer as they were before the
// front end was rewritten to avoid allocation (substring identifiers,
// byte-compared operators, a streaming printer). The differential tests
// in diff_test.go hold the rewrite to their output. The one
// deliberate change is the lexer's integer-overflow check, fixed here
// exactly as in lexer.go, so both sides agree on wrapping literals.

import (
	"fmt"
	"math"
	"strings"
	"unicode"
)

// oracleLexer turns MiniCC source into tokens. It handles // and /* */
// comments and tracks line/column positions.
type oracleLexer struct {
	src  string
	off  int
	line int
	col  int
}

// newOracleLexer returns a lexer over src.
func newOracleLexer(src string) *oracleLexer {
	return &oracleLexer{src: src, line: 1, col: 1}
}

// oracleLex tokenizes the whole input.
func oracleLex(src string) ([]Token, error) {
	lx := newOracleLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (l *oracleLexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *oracleLexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *oracleLexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *oracleLexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

// skipSpace consumes whitespace and comments.
func (l *oracleLexer) skipSpace() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return errf(start, "unterminated block comment")
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func oracleIsIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func oracleIsIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// Next returns the next token.
func (l *oracleLexer) Next() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case oracleIsIdentStart(c):
		var sb strings.Builder
		for l.off < len(l.src) && oracleIsIdentPart(l.peek()) {
			sb.WriteByte(l.advance())
		}
		word := sb.String()
		if k, ok := keywords[word]; ok {
			return Token{Kind: k, Text: word, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Text: word, Pos: pos}, nil

	case c >= '0' && c <= '9':
		var n int64
		for l.off < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
			d := int64(l.advance() - '0')
			if n > (math.MaxInt64-d)/10 {
				return Token{}, errf(pos, "integer literal overflows int64")
			}
			n = n*10 + d
		}
		if l.off < len(l.src) && oracleIsIdentStart(l.peek()) {
			return Token{}, errf(pos, "malformed number")
		}
		return Token{Kind: INTLIT, Int: n, Pos: pos}, nil

	case c == '"':
		l.advance()
		var sb strings.Builder
		for {
			if l.off >= len(l.src) || l.peek() == '\n' {
				return Token{}, errf(pos, "unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if l.off >= len(l.src) {
					return Token{}, errf(pos, "unterminated escape")
				}
				esc := l.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '\\', '"':
					sb.WriteByte(esc)
				default:
					return Token{}, errf(pos, "unknown escape \\%c", esc)
				}
				continue
			}
			sb.WriteByte(ch)
		}
		return Token{Kind: STRLIT, Text: sb.String(), Pos: pos}, nil
	}

	mk := func(k Kind, n int) (Token, error) {
		for i := 0; i < n; i++ {
			l.advance()
		}
		return Token{Kind: k, Pos: pos}, nil
	}
	two := string(c) + string(l.peek2())
	switch two {
	case "->":
		return mk(Arrow, 2)
	case "==":
		return mk(Eq, 2)
	case "!=":
		return mk(Ne, 2)
	case "<=":
		return mk(Le, 2)
	case ">=":
		return mk(Ge, 2)
	case "&&":
		return mk(AndAnd, 2)
	case "||":
		return mk(OrOr, 2)
	}
	switch c {
	case '{':
		return mk(LBrace, 1)
	case '}':
		return mk(RBrace, 1)
	case '(':
		return mk(LParen, 1)
	case ')':
		return mk(RParen, 1)
	case '[':
		return mk(LBracket, 1)
	case ']':
		return mk(RBracket, 1)
	case ';':
		return mk(Semi, 1)
	case ',':
		return mk(Comma, 1)
	case ':':
		return mk(Colon, 1)
	case '.':
		return mk(Dot, 1)
	case '~':
		return mk(Tilde, 1)
	case '=':
		return mk(Assign, 1)
	case '<':
		return mk(Lt, 1)
	case '>':
		return mk(Gt, 1)
	case '+':
		return mk(Plus, 1)
	case '-':
		return mk(Minus, 1)
	case '*':
		return mk(Star, 1)
	case '/':
		return mk(Slash, 1)
	case '%':
		return mk(Percent, 1)
	case '!':
		return mk(Not, 1)
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// oracleEscapes spells the four escapes the lexer reads; every other
// byte of a string literal prints raw.
var oracleEscapes = strings.NewReplacer("\n", `\n`, "\t", `\t`, `\`, `\\`, `"`, `\"`)

// Print renders a program back to MiniCC source. The output of the
// Amplify rewriter is printed with this and can be re-parsed; golden
// tests compare it textually.
func oraclePrint(prog *Program) string {
	pr := &oraclePrinter{}
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

type oraclePrinter struct {
	b      strings.Builder
	indent int
}

func (p *oraclePrinter) nl() { p.b.WriteByte('\n') }

func (p *oraclePrinter) line(format string, args ...any) {
	p.b.WriteString(strings.Repeat("    ", p.indent))
	fmt.Fprintf(&p.b, format, args...)
	p.nl()
}

func (p *oraclePrinter) class(cd *ClassDecl) {
	p.line("class %s {", cd.Name)
	p.indent++
	access := Private
	first := true
	setAccess := func(a Access, pos bool) {
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
		setAccess(m.Access, true)
		p.method(cd, m)
	}
	for _, f := range cd.Fields {
		setAccess(f.Access, true)
		comment := ""
		if f.Shadow {
			comment = " // shadow of " + f.ShadowOf + " (added by Amplify)"
		}
		p.line("%s %s;%s", f.Type, f.Name, comment)
	}
	p.indent--
	p.line("};")
}

func (p *oraclePrinter) method(cd *ClassDecl, m *Method) {
	note := ""
	if m.Synthetic {
		note = " // added by Amplify"
	}
	switch m.Kind {
	case Ctor:
		p.b.WriteString(strings.Repeat("    ", p.indent))
		fmt.Fprintf(&p.b, "%s(%s) ", cd.Name, oracleParams(m.Params))
	case Dtor:
		p.b.WriteString(strings.Repeat("    ", p.indent))
		fmt.Fprintf(&p.b, "~%s() ", cd.Name)
	case OpNew:
		p.b.WriteString(strings.Repeat("    ", p.indent))
		fmt.Fprintf(&p.b, "%s operator new(%s) ", m.Ret, oracleParams(m.Params))
	case OpDelete:
		p.b.WriteString(strings.Repeat("    ", p.indent))
		fmt.Fprintf(&p.b, "%s operator delete(%s) ", m.Ret, oracleParams(m.Params))
	default:
		p.b.WriteString(strings.Repeat("    ", p.indent))
		fmt.Fprintf(&p.b, "%s %s(%s) ", m.Ret, m.Name, oracleParams(m.Params))
	}
	p.blockInline(m.Body, note)
}

func (p *oraclePrinter) fun(fd *FuncDecl) {
	p.b.WriteString(strings.Repeat("    ", p.indent))
	fmt.Fprintf(&p.b, "%s %s(%s) ", fd.Ret, fd.Name, oracleParams(fd.Params))
	p.blockInline(fd.Body, "")
}

func oracleParams(ps []*Param) string {
	parts := make([]string, len(ps))
	for i, pp := range ps {
		parts[i] = fmt.Sprintf("%s %s", pp.Type, pp.Name)
	}
	return strings.Join(parts, ", ")
}

// blockInline prints "{ ... }" starting on the current line.
func (p *oraclePrinter) blockInline(b *Block, note string) {
	p.b.WriteString("{" + note + "\n")
	p.indent++
	for _, s := range b.Stmts {
		p.stmt(s)
	}
	p.indent--
	p.line("}")
}

func (p *oraclePrinter) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		p.b.WriteString(strings.Repeat("    ", p.indent))
		p.blockInline(s, "")
	case *VarDecl:
		if s.Init != nil {
			p.line("%s %s = %s;", s.Type, s.Name, oracleExpr(s.Init))
		} else {
			p.line("%s %s;", s.Type, s.Name)
		}
	case *ExprStmt:
		p.line("%s;", oracleExpr(s.X))
	case *If:
		p.b.WriteString(strings.Repeat("    ", p.indent))
		fmt.Fprintf(&p.b, "if (%s) ", oracleExpr(s.Cond))
		p.compound(s.Then)
		if s.Else != nil {
			p.b.WriteString(strings.Repeat("    ", p.indent))
			p.b.WriteString("else ")
			p.compound(s.Else)
		}
	case *While:
		p.b.WriteString(strings.Repeat("    ", p.indent))
		fmt.Fprintf(&p.b, "while (%s) ", oracleExpr(s.Cond))
		p.compound(s.Body)
	case *For:
		init, cond, post := "", "", ""
		if s.Init != nil {
			switch is := s.Init.(type) {
			case *VarDecl:
				if is.Init != nil {
					init = fmt.Sprintf("%s %s = %s", is.Type, is.Name, oracleExpr(is.Init))
				} else {
					init = fmt.Sprintf("%s %s", is.Type, is.Name)
				}
			case *ExprStmt:
				init = oracleExpr(is.X)
			}
		}
		if s.Cond != nil {
			cond = oracleExpr(s.Cond)
		}
		if s.Post != nil {
			post = oracleExpr(s.Post)
		}
		p.b.WriteString(strings.Repeat("    ", p.indent))
		fmt.Fprintf(&p.b, "for (%s; %s; %s) ", init, cond, post)
		p.compound(s.Body)
	case *Return:
		if s.X != nil {
			p.line("return %s;", oracleExpr(s.X))
		} else {
			p.line("return;")
		}
	case *DeleteStmt:
		if s.Array {
			p.line("delete[] %s;", oracleExpr(s.X))
		} else {
			p.line("delete %s;", oracleExpr(s.X))
		}
	case *Spawn:
		p.line("spawn %s(%s);", s.Func, oracleExprList(s.Args))
	case *Join:
		p.line("join;")
	}
}

// compound prints a statement that follows a control header, bracing
// single statements for readability.
func (p *oraclePrinter) compound(s Stmt) {
	if b, ok := s.(*Block); ok {
		p.blockInline(b, "")
		return
	}
	p.b.WriteString("{\n")
	p.indent++
	p.stmt(s)
	p.indent--
	p.line("}")
}

func oracleExprList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = oracleExpr(e)
	}
	return strings.Join(parts, ", ")
}

// expr renders an expression, parenthesizing nested binaries
// conservatively.
func oracleExpr(e Expr) string {
	switch e := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", e.Value)
	case *StrLit:
		return `"` + oracleEscapes.Replace(e.Value) + `"`
	case *NullLit:
		return "null"
	case *Ident:
		return e.Name
	case *This:
		return "this"
	case *Paren:
		return "(" + oracleExpr(e.X) + ")"
	case *Unary:
		op := "!"
		if e.Op == Minus {
			op = "-"
		}
		return op + oracleOperand(e.X)
	case *Binary:
		return fmt.Sprintf("%s %s %s", oracleOperand(e.X), opText(e.Op), oracleOperand(e.Y))
	case *AssignExpr:
		return fmt.Sprintf("%s = %s", oracleExpr(e.LHS), oracleExpr(e.RHS))
	case *Call:
		return fmt.Sprintf("%s(%s)", e.Func, oracleExprList(e.Args))
	case *MethodCall:
		return fmt.Sprintf("%s->%s(%s)", oracleOperand(e.Recv), e.Name, oracleExprList(e.Args))
	case *DtorCall:
		return fmt.Sprintf("%s->~%s()", oracleOperand(e.Recv), e.Class)
	case *FieldAccess:
		return fmt.Sprintf("%s->%s", oracleOperand(e.Recv), e.Name)
	case *Index:
		return fmt.Sprintf("%s[%s]", oracleOperand(e.X), oracleExpr(e.I))
	case *NewExpr:
		if e.Placement != nil {
			return fmt.Sprintf("new(%s) %s(%s)", oracleExpr(e.Placement), e.Class, oracleExprList(e.Args))
		}
		return fmt.Sprintf("new %s(%s)", e.Class, oracleExprList(e.Args))
	case *NewArray:
		return fmt.Sprintf("new %s[%s]", e.Elem.Name, oracleExpr(e.Len))
	}
	return fmt.Sprintf("/*?%T*/", e)
}

// operand wraps composite subexpressions in parentheses.
func oracleOperand(e Expr) string {
	switch e.(type) {
	case *Binary, *AssignExpr, *Unary:
		return "(" + oracleExpr(e) + ")"
	}
	return oracleExpr(e)
}
