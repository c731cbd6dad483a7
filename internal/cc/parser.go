package cc

import "fmt"

// Parser is a recursive-descent parser for MiniCC.
type Parser struct {
	toks []Token
	pos  int
	// classNames collects class declarations seen so far, so that
	// `Name*` can be recognized as a type in declarations.
	classNames map[string]bool
}

// Parse lexes and parses a translation unit.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, classNames: map[string]bool{}}
	// Pre-scan for class names so classes may reference classes declared
	// later in the file.
	for i := 0; i+1 < len(toks); i++ {
		if toks[i].Kind == KwClass && toks[i+1].Kind == IDENT {
			p.classNames[toks[i+1].Text] = true
		}
	}
	return p.parseProgram()
}

// MustParse parses src and panics on error (tests and examples).
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) peek() Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, errf(p.cur().Pos, "expected %s, found %s", k, p.describe(p.cur()))
	}
	return p.next(), nil
}

func (p *Parser) describe(t Token) string {
	if t.Kind == IDENT {
		return fmt.Sprintf("identifier %q", t.Text)
	}
	return t.Kind.String()
}

// isTypeStart reports whether the current token can begin a type.
func (p *Parser) isTypeStart(t Token) bool {
	switch t.Kind {
	case KwInt, KwChar, KwVoid, KwUint:
		return true
	case IDENT:
		return p.classNames[t.Text]
	}
	return false
}

// parseType parses a base type and its pointer stars.
func (p *Parser) parseType() (Type, error) {
	t := p.cur()
	var name string
	switch t.Kind {
	case KwInt:
		name = "int"
	case KwChar:
		name = "char"
	case KwVoid:
		name = "void"
	case KwUint:
		name = "uint"
	case IDENT:
		name = t.Text
	default:
		return Type{}, errf(t.Pos, "expected type, found %s", p.describe(t))
	}
	p.next()
	ty := Type{Name: name}
	for p.accept(Star) {
		ty.Stars++
	}
	return ty, nil
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.cur().Kind != EOF {
		if p.cur().Kind == KwClass {
			cd, err := p.parseClass()
			if err != nil {
				return nil, err
			}
			prog.Decls = append(prog.Decls, cd)
			continue
		}
		fd, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		prog.Decls = append(prog.Decls, fd)
	}
	return prog, nil
}

func (p *Parser) parseClass() (*ClassDecl, error) {
	kw, _ := p.expect(KwClass)
	nameTok, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	cd := &ClassDecl{Name: nameTok.Text, Pos: kw.Pos}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	access := Private // C++ default for class
	for p.cur().Kind != RBrace {
		switch p.cur().Kind {
		case KwPublic:
			p.next()
			if _, err := p.expect(Colon); err != nil {
				return nil, err
			}
			access = Public
			continue
		case KwPrivate:
			p.next()
			if _, err := p.expect(Colon); err != nil {
				return nil, err
			}
			access = Private
			continue
		case Tilde:
			// Destructor: ~Name() { ... }
			tpos := p.next().Pos
			nt, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if nt.Text != cd.Name {
				return nil, errf(nt.Pos, "destructor ~%s in class %s", nt.Text, cd.Name)
			}
			if _, err := p.expect(LParen); err != nil {
				return nil, err
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			cd.Methods = append(cd.Methods, &Method{
				Kind: Dtor, Body: body, Access: access, Pos: tpos, Class: cd,
			})
			continue
		case IDENT:
			if p.cur().Text == cd.Name && p.peek().Kind == LParen {
				// Constructor.
				cpos := p.next().Pos
				params, err := p.parseParams()
				if err != nil {
					return nil, err
				}
				body, err := p.parseBlock()
				if err != nil {
					return nil, err
				}
				cd.Methods = append(cd.Methods, &Method{
					Kind: Ctor, Params: params, Body: body, Access: access, Pos: cpos, Class: cd,
				})
				continue
			}
		}
		// Field, method, or operator: starts with a type.
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if p.cur().Kind == KwOperator {
			opos := p.next().Pos
			var kind MethodKind
			switch p.cur().Kind {
			case KwNew:
				kind = OpNew
			case KwDelete:
				kind = OpDelete
			default:
				return nil, errf(p.cur().Pos, "expected 'new' or 'delete' after 'operator'")
			}
			p.next()
			params, err := p.parseParams()
			if err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			cd.Methods = append(cd.Methods, &Method{
				Kind: kind, Ret: ty, Params: params, Body: body, Access: access, Pos: opos, Class: cd,
			})
			continue
		}
		nt, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.cur().Kind == LParen {
			params, err := p.parseParams()
			if err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			cd.Methods = append(cd.Methods, &Method{
				Kind: PlainMethod, Ret: ty, Name: nt.Text, Params: params,
				Body: body, Access: access, Pos: nt.Pos, Class: cd,
			})
			continue
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		cd.Fields = append(cd.Fields, &Field{Type: ty, Name: nt.Text, Access: access, Pos: nt.Pos})
	}
	if _, err := p.expect(RBrace); err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return cd, nil
}

func (p *Parser) parseFunc() (*FuncDecl, error) {
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	nt, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Ret: ty, Name: nt.Text, Params: params, Body: body, Pos: nt.Pos}, nil
}

func (p *Parser) parseParams() ([]*Param, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	var params []*Param
	for p.cur().Kind != RParen {
		if len(params) > 0 {
			if _, err := p.expect(Comma); err != nil {
				return nil, err
			}
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		nt, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		params = append(params, &Param{Type: ty, Name: nt.Text, Pos: nt.Pos})
	}
	p.next() // RParen
	return params, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{Pos: lb.Pos}
	for p.cur().Kind != RBrace {
		if p.cur().Kind == EOF {
			return nil, errf(lb.Pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next()
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case LBrace:
		return p.parseBlock()
	case KwIf:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept(KwElse) {
			if els, err = p.parseStmt(); err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els, Pos: t.Pos}, nil
	case KwWhile:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body, Pos: t.Pos}, nil
	case KwFor:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		f := &For{Pos: t.Pos}
		if p.cur().Kind != Semi {
			if p.isTypeStart(p.cur()) && p.peekIsDecl() {
				vd, err := p.parseVarDecl()
				if err != nil {
					return nil, err
				}
				f.Init = vd
			} else {
				x, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				f.Init = &ExprStmt{X: x, Pos: t.Pos}
				if _, err := p.expect(Semi); err != nil {
					return nil, err
				}
			}
		} else {
			p.next()
		}
		if p.cur().Kind != Semi {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Cond = cond
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		if p.cur().Kind != RParen {
			post, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Post = post
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		f.Body = body
		return f, nil
	case KwReturn:
		p.next()
		r := &Return{Pos: t.Pos}
		if p.cur().Kind != Semi {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.X = x
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return r, nil
	case KwDelete:
		p.next()
		array := false
		if p.accept(LBracket) {
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			array = true
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &DeleteStmt{X: x, Array: array, Pos: t.Pos}, nil
	case KwSpawn:
		p.next()
		nt, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &Spawn{Func: nt.Text, Args: args, Pos: t.Pos}, nil
	case KwJoin:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &Join{Pos: t.Pos}, nil
	}
	if p.isTypeStart(t) && p.peekIsDecl() {
		return p.parseVarDecl()
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return &ExprStmt{X: x, Pos: t.Pos}, nil
}

// peekIsDecl disambiguates `T* x ...` declarations from expressions
// like `a * b` by scanning past the stars for IDENT (=|;|,).
func (p *Parser) peekIsDecl() bool {
	i := p.pos + 1
	for i < len(p.toks) && p.toks[i].Kind == Star {
		i++
	}
	if i >= len(p.toks) || p.toks[i].Kind != IDENT {
		return false
	}
	i++
	if i >= len(p.toks) {
		return false
	}
	switch p.toks[i].Kind {
	case Assign, Semi:
		return true
	}
	return false
}

// parseVarDecl parses `type name (= expr)? ;`.
func (p *Parser) parseVarDecl() (*VarDecl, error) {
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	nt, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	vd := &VarDecl{Type: ty, Name: nt.Text, Pos: nt.Pos}
	if p.accept(Assign) {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		vd.Init = init
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return vd, nil
}

func (p *Parser) parseArgs() ([]Expr, error) {
	var args []Expr
	for p.cur().Kind != RParen {
		if len(args) > 0 {
			if _, err := p.expect(Comma); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	p.next()
	return args, nil
}

// --- Expression parsing (precedence climbing).

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssign() }

func (p *Parser) parseAssign() (Expr, error) {
	lhs, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == Assign {
		pos := p.next().Pos
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{LHS: lhs, RHS: rhs, Pos: pos}, nil
	}
	return lhs, nil
}

// binaryPrec is the binding strength of each binary operator, loosest
// first: || < && < equality < relational < additive < multiplicative.
// Kinds that are not binary operators have zero.
var binaryPrec = [...]int{
	OrOr: 1, AndAnd: 2, Eq: 3, Ne: 3, Lt: 4, Le: 4, Gt: 4, Ge: 4,
	Plus: 5, Minus: 5, Star: 6, Slash: 6, Percent: 6,
}

// parseBinary parses a chain of unary operands joined by binary
// operators of strength minPrec or tighter. Parsing each right operand
// at one level tighter makes every level left-associative.
func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().Kind
		prec := 0
		if int(op) < len(binaryPrec) {
			prec = binaryPrec[op]
		}
		if prec < minPrec {
			return lhs, nil
		}
		pos := p.next().Pos
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: op, X: lhs, Y: rhs, Pos: pos}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if k := p.cur().Kind; k == Not || k == Minus {
		pos := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: k, X: x, Pos: pos}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case Arrow, Dot:
			p.next()
			if p.accept(Tilde) {
				nt, err := p.expect(IDENT)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(LParen); err != nil {
					return nil, err
				}
				if _, err := p.expect(RParen); err != nil {
					return nil, err
				}
				x = &DtorCall{Recv: x, Class: nt.Text, Pos: nt.Pos}
				continue
			}
			nt, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if p.accept(LParen) {
				args, err := p.parseArgs()
				if err != nil {
					return nil, err
				}
				x = &MethodCall{Recv: x, Name: nt.Text, Args: args, Pos: nt.Pos}
			} else {
				x = &FieldAccess{Recv: x, Name: nt.Text, Pos: nt.Pos}
			}
		case LBracket:
			pos := p.next().Pos
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			x = &Index{X: x, I: i, Pos: pos}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INTLIT:
		p.next()
		return &IntLit{Value: t.Int, Pos: t.Pos}, nil
	case STRLIT:
		p.next()
		return &StrLit{Value: t.Text, Pos: t.Pos}, nil
	case KwNull:
		p.next()
		return &NullLit{Pos: t.Pos}, nil
	case KwThis:
		p.next()
		return &This{Pos: t.Pos}, nil
	case KwNew:
		return p.parseNew()
	case LParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return &Paren{X: x, Pos: t.Pos}, nil
	case IDENT:
		p.next()
		if p.cur().Kind == LParen {
			p.next()
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &Call{Func: t.Text, Args: args, Pos: t.Pos}, nil
		}
		return &Ident{Name: t.Text, Pos: t.Pos}, nil
	}
	return nil, errf(t.Pos, "expected expression, found %s", p.describe(t))
}

// parseNew parses `new T(args)`, `new(place) T(args)`, and
// `new char[n]` / `new int[n]`.
func (p *Parser) parseNew() (Expr, error) {
	kw, _ := p.expect(KwNew)
	var placement Expr
	if p.cur().Kind == LParen {
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		placement = x
	}
	switch p.cur().Kind {
	case KwChar, KwInt:
		elem := "char"
		if p.cur().Kind == KwInt {
			elem = "int"
		}
		p.next()
		if placement != nil {
			return nil, errf(kw.Pos, "placement new of arrays is not supported")
		}
		if _, err := p.expect(LBracket); err != nil {
			return nil, err
		}
		n, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
		return &NewArray{Elem: Type{Name: elem}, Len: n, Pos: kw.Pos}, nil
	case IDENT:
		nt := p.next()
		ne := &NewExpr{Class: nt.Text, Placement: placement, Pos: kw.Pos}
		if p.accept(LParen) {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			ne.Args = args
		}
		return ne, nil
	}
	return nil, errf(p.cur().Pos, "expected type after 'new'")
}
