package cc

import (
	"math"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns MiniCC source into tokens. It handles // and /* */
// comments and tracks line/column positions.
type Lexer struct {
	src       string
	off       int
	line      int
	lineStart int // offset of the current line's first byte
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// maxSrc is the longest source a Token's 32-bit offsets can span.
const maxSrc = math.MaxInt32

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
	if err := lx.checkLen(); err != nil {
		return toks, err
	}
	for {
		toks = slices.Grow(toks, 1)[:len(toks)+1]
		t := &toks[len(toks)-1]
		if err := lx.next(t); err != nil {
			return toks[:len(toks)-1], err
		}
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

// checkLen refuses a source longer than a Token's offsets can span.
func (l *Lexer) checkLen() error {
	if len(l.src) > maxSrc {
		return errf(Pos{Line: 1, Col: 1}, "source longer than %d bytes", maxSrc)
	}
	return nil
}

// pos returns the position of byte off, which lies on the current line.
func (l *Lexer) pos(off int) Pos { return Pos{Line: l.line, Col: off - l.lineStart + 1} }

// skipComment consumes the comment that starts at l.off, a '/' byte, if
// one does, and reports whether one did.
func (l *Lexer) skipComment() (bool, error) {
	src, off := l.src, l.off
	if off+1 >= len(src) {
		return false, nil
	}
	switch src[off+1] {
	case '/':
		if i := strings.IndexByte(src[off:], '\n'); i >= 0 {
			l.off = off + i
		} else {
			l.off = len(src)
		}
		return true, nil
	case '*':
		body := src[off+2:]
		end := strings.Index(body, "*/")
		if end < 0 {
			return false, errf(l.pos(off), "unterminated block comment")
		}
		body = body[:end]
		if nl := strings.LastIndexByte(body, '\n'); nl >= 0 {
			l.line += strings.Count(body, "\n")
			l.lineStart = off + 2 + nl + 1
		}
		l.off = off + 2 + end + 2
		return true, nil
	}
	return false, nil
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

// identStart and identPart tabulate isIdentStart and isIdentPart for
// every byte.
var identStart, identPart = identTables()

func identTables() (start, part [256]bool) {
	for c := range 256 {
		start[c], part[c] = isIdentStart(byte(c)), isIdentPart(byte(c))
	}
	return start, part
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.checkLen(); err != nil {
		return Token{}, err
	}
	var t Token
	if err := l.next(&t); err != nil {
		return Token{}, err
	}
	return t, nil
}

// next lexes the next token into t, overwriting every field; the caller
// has checked the source's length.
func (l *Lexer) next(t *Token) error {
	// Skip whitespace and comments.
	src, off := l.src, l.off
	for off < len(src) {
		switch src[off] {
		case ' ', '\t', '\r':
			off++
			continue
		case '\n':
			off++
			l.line++
			l.lineStart = off
			continue
		case '/':
			l.off = off
			skipped, err := l.skipComment()
			if err != nil {
				return err
			}
			if skipped {
				off = l.off
				continue
			}
		}
		break
	}
	l.off = off
	*t = Token{Pos: l.pos(off)}
	if off >= len(src) {
		return nil // EOF
	}
	// A token never spans a newline, so lexing one moves only the offset.
	c := src[off]
	switch {
	case identStart[c]:
		start := off
		for off++; off < len(src) && identPart[src[off]]; off++ {
		}
		l.off = off
		t.Kind = keyword(src[start:off])
		t.Off, t.End = int32(start), int32(off)
		return nil

	case c >= '0' && c <= '9':
		var n int64
		for ; off < len(src) && src[off] >= '0' && src[off] <= '9'; off++ {
			d := int64(src[off] - '0')
			if n > (math.MaxInt64-d)/10 {
				return errf(t.Pos, "integer literal overflows int64")
			}
			n = n*10 + d
		}
		l.off = off
		if off < len(src) && identStart[src[off]] {
			return errf(t.Pos, "malformed number")
		}
		t.Kind, t.Int = INTLIT, n
		return nil

	case c == '"':
		start := off + 1
		for off = start; ; {
			if off >= len(src) || src[off] == '\n' {
				return errf(t.Pos, "unterminated string literal")
			}
			ch := src[off]
			off++
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if off >= len(src) {
					return errf(t.Pos, "unterminated escape")
				}
				switch esc := src[off]; esc {
				case 'n', 't', '\\', '"':
					off++
				default:
					return errf(t.Pos, "unknown escape \\%c", esc)
				}
			}
		}
		l.off = off
		t.Kind = STRLIT
		t.Off, t.End = int32(start), int32(off-1)
		return nil
	}

	var c2 byte
	if off+1 < len(src) {
		c2 = src[off+1]
	}
	if k := twoCharOp(c, c2); k != EOF {
		l.off = off + 2
		t.Kind = k
		return nil
	}
	if k := oneCharOps[c]; k != EOF {
		l.off = off + 1
		t.Kind = k
		return nil
	}
	return errf(t.Pos, "unexpected character %q", string(c))
}

// unescape resolves the escapes of a string literal body the lexer
// accepted: \n, \t, \\ and \".
func unescape(body string) string {
	if strings.IndexByte(body, '\\') < 0 {
		return body
	}
	var sb strings.Builder
	sb.Grow(len(body))
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '\\' {
			i++
			switch c = body[i]; c {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			}
		}
		sb.WriteByte(c)
	}
	return sb.String()
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
