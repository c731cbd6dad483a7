package cc

import (
	"fmt"
	"sync"
)

// Parser is a recursive-descent parser for MiniCC.
type Parser struct {
	src  string
	toks []Token
	pos  int
	// classNames collects class declarations seen so far, so that
	// `Name*` can be recognized as a type in declarations.
	classNames map[string]bool
	nodes
}

// Parse lexes and parses a translation unit.
func Parse(src string) (*Program, error) {
	buf := tokenPool.Get().(*[]Token)
	if cap(*buf) < tokenCap(src) {
		*buf = make([]Token, 0, tokenCap(src))
	}
	toks, err := lexAppend((*buf)[:0], src)
	defer func() {
		*buf = toks[:0]
		tokenPool.Put(buf)
	}()
	if err != nil {
		return nil, err
	}
	// Pre-scan for class names so classes may reference classes declared
	// later in the file.
	n := 0
	for i := 0; i+1 < len(toks); i++ {
		if toks[i].Kind == KwClass && toks[i+1].Kind == IDENT {
			n++
		}
	}
	p := &Parser{src: src, toks: toks, classNames: make(map[string]bool, n)}
	for i := 0; i+1 < len(toks); i++ {
		if toks[i].Kind == KwClass && toks[i+1].Kind == IDENT {
			p.classNames[p.text(&toks[i+1])] = true
		}
	}
	return p.parseProgram()
}

// tokenPool recycles Parse's token buffers: a large program's token
// stream is a large allocation, zeroed on every parse otherwise. Tokens
// hold no pointer, so a pooled buffer keeps no source alive.
var tokenPool = sync.Pool{New: func() any { return new([]Token) }}

// MustParse parses src and panics on error (tests and examples).
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

func (p *Parser) cur() *Token { return &p.toks[p.pos] }
func (p *Parser) kind() Kind  { return p.toks[p.pos].Kind }
func (p *Parser) peek() *Token {
	return &p.toks[min(p.pos+1, len(p.toks)-1)]
}

func (p *Parser) next() *Token {
	t := &p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k Kind) bool {
	if p.kind() == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (*Token, error) {
	if p.kind() != k {
		return nil, errf(p.cur().Pos, "expected %s, found %s", k, p.describe(p.cur()))
	}
	return p.next(), nil
}

// text returns t's text: identifiers, keywords and string literals are
// read from the source here and nowhere else.
func (p *Parser) text(t *Token) string { return t.Text(p.src) }

func (p *Parser) describe(t *Token) string {
	if t.Kind == IDENT {
		return fmt.Sprintf("identifier %q", p.text(t))
	}
	return t.Kind.String()
}

// isTypeStart reports whether t can begin a type.
func (p *Parser) isTypeStart(t *Token) bool {
	switch t.Kind {
	case KwInt, KwChar, KwVoid, KwUint:
		return true
	case IDENT:
		return p.classNames[p.text(t)]
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
		name = p.text(t)
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
	mark := p.declList.mark()
	for p.kind() != EOF {
		if p.kind() == KwClass {
			cd, err := p.parseClass()
			if err != nil {
				return nil, err
			}
			p.declList.push(cd)
			continue
		}
		fd, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		p.declList.push(fd)
	}
	prog.Decls = p.declList.done(mark)
	return prog, nil
}

func (p *Parser) parseClass() (*ClassDecl, error) {
	kw, _ := p.expect(KwClass)
	nameTok, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	cd := p.classes.new(ClassDecl{Name: p.text(nameTok), Pos: kw.Pos})
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	fields, methods := p.fieldList.mark(), p.methodList.mark()
	access := Private // C++ default for class
	for p.kind() != RBrace {
		switch p.kind() {
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
			if name := p.text(nt); name != cd.Name {
				return nil, errf(nt.Pos, "destructor ~%s in class %s", name, cd.Name)
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
			p.methodList.push(p.methods.new(Method{
				Kind: Dtor, Body: body, Access: access, Pos: tpos, Class: cd,
			}))
			continue
		case IDENT:
			if p.text(p.cur()) == cd.Name && p.peek().Kind == LParen {
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
				p.methodList.push(p.methods.new(Method{
					Kind: Ctor, Params: params, Body: body, Access: access, Pos: cpos, Class: cd,
				}))
				continue
			}
		}
		// Field, method, or operator: starts with a type.
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if p.kind() == KwOperator {
			opos := p.next().Pos
			var kind MethodKind
			switch p.kind() {
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
			p.methodList.push(p.methods.new(Method{
				Kind: kind, Ret: ty, Params: params, Body: body, Access: access, Pos: opos, Class: cd,
			}))
			continue
		}
		nt, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.kind() == LParen {
			params, err := p.parseParams()
			if err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			p.methodList.push(p.methods.new(Method{
				Kind: PlainMethod, Ret: ty, Name: p.text(nt), Params: params,
				Body: body, Access: access, Pos: nt.Pos, Class: cd,
			}))
			continue
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		p.fieldList.push(p.fields.new(Field{Type: ty, Name: p.text(nt), Access: access, Pos: nt.Pos}))
	}
	if _, err := p.expect(RBrace); err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	cd.Fields, cd.Methods = p.fieldList.done(fields), p.methodList.done(methods)
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
	return p.funcs.new(FuncDecl{Ret: ty, Name: p.text(nt), Params: params, Body: body, Pos: nt.Pos}), nil
}

func (p *Parser) parseParams() ([]*Param, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	mark := p.paramList.mark()
	for p.kind() != RParen {
		if p.paramList.mark() > mark {
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
		p.paramList.push(p.params.new(Param{Type: ty, Name: p.text(nt), Pos: nt.Pos}))
	}
	p.next() // RParen
	return p.paramList.done(mark), nil
}

func (p *Parser) parseBlock() (*Block, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	mark := p.stmtList.mark()
	for p.kind() != RBrace {
		if p.kind() == EOF {
			return nil, errf(lb.Pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmtList.push(s)
	}
	p.next()
	return p.blocks.new(Block{Stmts: p.stmtList.done(mark), Pos: lb.Pos}), nil
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
		return p.ifs.new(If{Cond: cond, Then: then, Else: els, Pos: t.Pos}), nil
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
		return p.whiles.new(While{Cond: cond, Body: body, Pos: t.Pos}), nil
	case KwFor:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		f := p.fors.new(For{Pos: t.Pos})
		if p.kind() != Semi {
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
				f.Init = p.exprStmts.new(ExprStmt{X: x, Pos: t.Pos})
				if _, err := p.expect(Semi); err != nil {
					return nil, err
				}
			}
		} else {
			p.next()
		}
		if p.kind() != Semi {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Cond = cond
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		if p.kind() != RParen {
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
		r := p.returns.new(Return{Pos: t.Pos})
		if p.kind() != Semi {
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
		return p.deletes.new(DeleteStmt{X: x, Array: array, Pos: t.Pos}), nil
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
		return p.spawns.new(Spawn{Func: p.text(nt), Args: args, Pos: t.Pos}), nil
	case KwJoin:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return p.joins.new(Join{Pos: t.Pos}), nil
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
	return p.exprStmts.new(ExprStmt{X: x, Pos: t.Pos}), nil
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
	vd := p.varDecls.new(VarDecl{Type: ty, Name: p.text(nt), Pos: nt.Pos})
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
	mark := p.exprList.mark()
	for p.kind() != RParen {
		if p.exprList.mark() > mark {
			if _, err := p.expect(Comma); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.exprList.push(a)
	}
	p.next()
	return p.exprList.done(mark), nil
}

// --- Expression parsing (precedence climbing).

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssign() }

func (p *Parser) parseAssign() (Expr, error) {
	lhs, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.kind() == Assign {
		pos := p.next().Pos
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return p.assigns.new(AssignExpr{LHS: lhs, RHS: rhs, Pos: pos}), nil
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
		op := p.kind()
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
		lhs = p.binaries.new(Binary{Op: op, X: lhs, Y: rhs, Pos: pos})
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if k := p.kind(); k == Not || k == Minus {
		pos := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.unaries.new(Unary{Op: k, X: x, Pos: pos}), nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.kind() {
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
				x = p.dtorCalls.new(DtorCall{Recv: x, Class: p.text(nt), Pos: nt.Pos})
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
				x = p.methodCalls.new(MethodCall{Recv: x, Name: p.text(nt), Args: args, Pos: nt.Pos})
			} else {
				x = p.fieldAccesses.new(FieldAccess{Recv: x, Name: p.text(nt), Pos: nt.Pos})
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
			x = p.indexes.new(Index{X: x, I: i, Pos: pos})
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
		return p.intLits.new(IntLit{Value: t.Int, Pos: t.Pos}), nil
	case STRLIT:
		p.next()
		return p.strLits.new(StrLit{Value: p.text(t), Pos: t.Pos}), nil
	case KwNull:
		p.next()
		return p.nullLits.new(NullLit{Pos: t.Pos}), nil
	case KwThis:
		p.next()
		return p.thises.new(This{Pos: t.Pos}), nil
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
		return p.parens.new(Paren{X: x, Pos: t.Pos}), nil
	case IDENT:
		p.next()
		if p.kind() == LParen {
			p.next()
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return p.calls.new(Call{Func: p.text(t), Args: args, Pos: t.Pos}), nil
		}
		return p.idents.new(Ident{Name: p.text(t), Pos: t.Pos}), nil
	}
	return nil, errf(t.Pos, "expected expression, found %s", p.describe(t))
}

// parseNew parses `new T(args)`, `new(place) T(args)`, and
// `new char[n]` / `new int[n]`.
func (p *Parser) parseNew() (Expr, error) {
	kw, _ := p.expect(KwNew)
	var placement Expr
	if p.kind() == LParen {
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
	switch p.kind() {
	case KwChar, KwInt:
		elem := "char"
		if p.kind() == KwInt {
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
		return p.newArrays.new(NewArray{Elem: Type{Name: elem}, Len: n, Pos: kw.Pos}), nil
	case IDENT:
		nt := p.next()
		ne := p.newExprs.new(NewExpr{Class: p.text(nt), Placement: placement, Pos: kw.Pos})
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

// --- Node storage.

// nodes hands out the AST nodes and lists of one parse: a slab per node
// type, and a scratch stack and slab per list element type.
type nodes struct {
	classes       slab[ClassDecl]
	fields        slab[Field]
	methods       slab[Method]
	funcs         slab[FuncDecl]
	params        slab[Param]
	blocks        slab[Block]
	varDecls      slab[VarDecl]
	exprStmts     slab[ExprStmt]
	ifs           slab[If]
	whiles        slab[While]
	fors          slab[For]
	returns       slab[Return]
	deletes       slab[DeleteStmt]
	spawns        slab[Spawn]
	joins         slab[Join]
	intLits       slab[IntLit]
	strLits       slab[StrLit]
	nullLits      slab[NullLit]
	idents        slab[Ident]
	thises        slab[This]
	unaries       slab[Unary]
	binaries      slab[Binary]
	assigns       slab[AssignExpr]
	calls         slab[Call]
	methodCalls   slab[MethodCall]
	dtorCalls     slab[DtorCall]
	fieldAccesses slab[FieldAccess]
	indexes       slab[Index]
	newExprs      slab[NewExpr]
	newArrays     slab[NewArray]
	parens        slab[Paren]

	declList   lists[Decl]
	fieldList  lists[*Field]
	methodList lists[*Method]
	paramList  lists[*Param]
	stmtList   lists[Stmt]
	exprList   lists[Expr]
}

// Slab chunks start at slabMin elements and double up to slabMax, so a
// small program's nodes take little more room than they need and a
// large one's take an allocation per slabMax nodes.
const (
	slabMin = 4
	slabMax = 64
)

// slab hands out values of one type from chunks. A chunk stays alive
// while any value in it is referenced; the nodes of a tree live and die
// together, so that keeps nothing alive longer than the tree.
type slab[T any] struct {
	free []T // the rest of the current chunk
	size int // the length the next chunk doubles, up to slabMax
}

// new returns a pointer to a copy of v.
func (s *slab[T]) new(v T) *T {
	if len(s.free) == 0 {
		s.grow(1)
	}
	n := &s.free[0]
	*n = v
	s.free = s.free[1:]
	return n
}

// copyOf returns a copy of items whose length and capacity are
// len(items), so that appending to it never writes into a neighbor; nil
// when items is empty.
func (s *slab[T]) copyOf(items []T) []T {
	if len(items) == 0 {
		return nil
	}
	if len(s.free) < len(items) {
		s.grow(len(items))
	}
	l := s.free[:len(items):len(items)]
	copy(l, items)
	s.free = s.free[len(items):]
	return l
}

// grow starts a chunk of at least n elements.
func (s *slab[T]) grow(n int) {
	s.size = min(max(2*s.size, slabMin), slabMax)
	s.free = make([]T, max(s.size, n))
}

// lists collects the elements of the lists being parsed on one scratch
// stack, where a nested list stacks above the list it is nested in, and
// copies each finished list into a slab at its exact size.
type lists[T any] struct {
	stack []T
	out   slab[T]
}

// mark returns the stack depth at which a list begins.
func (l *lists[T]) mark() int { return len(l.stack) }

func (l *lists[T]) push(v T) { l.stack = append(l.stack, v) }

// done pops the elements pushed since mark and returns them as a list.
func (l *lists[T]) done(mark int) []T {
	items := l.out.copyOf(l.stack[mark:])
	l.stack = l.stack[:mark]
	return items
}
