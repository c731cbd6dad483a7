package cc

import (
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns MiniCC source into tokens. It handles // and /* */
// comments and tracks line/column positions.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// tokenCap is the token capacity to lex src into. MiniCC source
// averages about 3.6 bytes per token, so len/3 tokens hold the whole
// stream of typical programs; sparser input (comments, deep
// indentation) only wastes capacity, and denser input falls back to
// append's growth.
func tokenCap(src string) int { return len(src)/3 + 1 }

// lexAppend appends src's tokens to toks. On error it returns what it
// appended so far along with the error.
func lexAppend(toks []Token, src string) ([]Token, error) {
	lx := NewLexer(src)
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
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

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

// skipSpace consumes whitespace and comments.
func (l *Lexer) skipSpace() error {
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

// isIdentStart and isIdentPart classify one byte. ASCII bytes are
// decided directly; bytes >= 0x80 are read as the Latin-1 code point of
// the same value, so such bytes in identifiers are accepted exactly as
// unicode.IsLetter/IsDigit decide.
func isIdentStart(c byte) bool {
	if c < utf8.RuneSelf {
		return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
	}
	return unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	if c < utf8.RuneSelf {
		return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
	}
	return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		// Identifiers hold no newline, so the column moves with the
		// offset, and the text is a substring of the source.
		start := l.off
		for l.off < len(l.src) && isIdentPart(l.src[l.off]) {
			l.off++
		}
		l.col += l.off - start
		word := l.src[start:l.off]
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
		if l.off < len(l.src) && isIdentStart(l.peek()) {
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

	if k := twoCharOp(c, l.peek2()); k != EOF {
		l.off += 2
		l.col += 2
		return Token{Kind: k, Pos: pos}, nil
	}
	if k := oneCharOps[c]; k != EOF {
		l.off++
		l.col++
		return Token{Kind: k, Pos: pos}, nil
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// twoCharOp returns the operator spelled c c2, or EOF if there is none.
func twoCharOp(c, c2 byte) Kind {
	switch {
	case c == '-' && c2 == '>':
		return Arrow
	case c == '=' && c2 == '=':
		return Eq
	case c == '!' && c2 == '=':
		return Ne
	case c == '<' && c2 == '=':
		return Le
	case c == '>' && c2 == '=':
		return Ge
	case c == '&' && c2 == '&':
		return AndAnd
	case c == '|' && c2 == '|':
		return OrOr
	}
	return EOF
}

// oneCharOps maps each single-byte punctuation token to its kind; other
// bytes map to EOF.
var oneCharOps = [256]Kind{
	'{': LBrace, '}': RBrace, '(': LParen, ')': RParen, '[': LBracket, ']': RBracket,
	';': Semi, ',': Comma, ':': Colon, '.': Dot, '~': Tilde, '=': Assign,
	'<': Lt, '>': Gt, '+': Plus, '-': Minus, '*': Star, '/': Slash, '%': Percent, '!': Not,
}
