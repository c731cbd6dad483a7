// Package cc implements the front end for MiniCC, the C++ subset the
// Amplify pre-processor operates on: classes with fields, constructors,
// destructors and inline methods; new/delete and new[]/delete[]
// expressions, including placement new and explicit destructor calls
// (which the rewriter emits); free functions; and spawn/join threading.
// The package provides a lexer, a recursive-descent parser, a semantic
// analyzer and a source printer, so that transformed programs can be
// emitted, re-parsed and executed.
package cc

import "fmt"

// Kind enumerates token kinds.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INTLIT
	STRLIT

	// Keywords.
	KwClass
	KwPublic
	KwPrivate
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwNew
	KwDelete
	KwThis
	KwInt
	KwChar
	KwVoid
	KwUint
	KwSpawn
	KwJoin
	KwOperator
	KwNull

	// Punctuation and operators.
	LBrace
	RBrace
	LParen
	RParen
	LBracket
	RBracket
	Semi
	Comma
	Colon
	Arrow
	Dot
	Tilde
	Assign
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	Plus
	Minus
	Star
	Slash
	Percent
	Not
	AndAnd
	OrOr
)

var kindNames = map[Kind]string{
	EOF: "end of file", IDENT: "identifier", INTLIT: "integer", STRLIT: "string",
	KwClass: "'class'", KwPublic: "'public'", KwPrivate: "'private'", KwIf: "'if'",
	KwElse: "'else'", KwWhile: "'while'", KwFor: "'for'", KwReturn: "'return'",
	KwNew: "'new'", KwDelete: "'delete'", KwThis: "'this'", KwInt: "'int'",
	KwChar: "'char'", KwVoid: "'void'", KwUint: "'uint'", KwSpawn: "'spawn'",
	KwJoin: "'join'", KwOperator: "'operator'", KwNull: "'null'",
	LBrace: "'{'", RBrace: "'}'", LParen: "'('", RParen: "')'",
	LBracket: "'['", RBracket: "']'", Semi: "';'", Comma: "','", Colon: "':'",
	Arrow: "'->'", Dot: "'.'", Tilde: "'~'", Assign: "'='", Eq: "'=='",
	Ne: "'!='", Lt: "'<'", Le: "'<='", Gt: "'>'", Ge: "'>='", Plus: "'+'",
	Minus: "'-'", Star: "'*'", Slash: "'/'", Percent: "'%'", Not: "'!'",
	AndAnd: "'&&'", OrOr: "'||'",
}

// String names the kind for error messages.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// keyword returns the keyword kind spelled word, or IDENT if word is
// no keyword.
func keyword(word string) Kind {
	switch word {
	case "class":
		return KwClass
	case "public":
		return KwPublic
	case "private":
		return KwPrivate
	case "if":
		return KwIf
	case "else":
		return KwElse
	case "while":
		return KwWhile
	case "for":
		return KwFor
	case "return":
		return KwReturn
	case "new":
		return KwNew
	case "delete":
		return KwDelete
	case "this":
		return KwThis
	case "int":
		return KwInt
	case "char":
		return KwChar
	case "void":
		return KwVoid
	case "uint":
		return KwUint
	case "spawn":
		return KwSpawn
	case "join":
		return KwJoin
	case "operator":
		return KwOperator
	case "null":
		return KwNull
	}
	return IDENT
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

// String formats the position.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token. It holds no pointer, so a token buffer
// is never scanned by the garbage collector and keeps no source alive:
// its text is the byte span Off:End of the source it was lexed from,
// read with Text.
type Token struct {
	Kind Kind
	Pos  Pos
	Int  int64 // INTLIT value
	// Off and End delimit an identifier's or keyword's spelling, or a
	// string literal's body between its quotes, escapes unresolved.
	// They are zero for every other kind.
	Off, End int32
}

// Text returns the token's text in src, the source it was lexed from:
// the spelling of an identifier or keyword, the unescaped body of a
// string literal, and "" for every other kind.
func (t *Token) Text(src string) string {
	s := src[t.Off:t.End]
	if t.Kind == STRLIT {
		return unescape(s)
	}
	return s
}

// Error is a front-end diagnostic with a position.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
