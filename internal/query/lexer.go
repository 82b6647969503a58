package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token classes of the CQL dialect.
type tokenKind int

const (
	tokEOF tokenKind = iota + 1
	tokIdent
	tokNumber
	tokString
	tokStar
	tokComma
	tokDot
	tokLBracket
	tokRBracket
	tokOp // = != < <= > >=
	tokMinus
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer tokenizes a query string. Keywords are recognized by the parser via
// case-insensitive comparison on tokIdent, matching the paper's mixed-case
// examples ("Range 30 Minutes", "FROM", "Now").
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, toks: make([]token, 0, len(src)/3+1)} // about a token per three bytes
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "")
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == ',':
			l.emit(tokComma, ",")
			l.pos++
		case c == '.':
			l.emit(tokDot, ".")
			l.pos++
		case c == '*':
			l.emit(tokStar, "*")
			l.pos++
		case c == '[':
			l.emit(tokLBracket, "[")
			l.pos++
		case c == ']':
			l.emit(tokRBracket, "]")
			l.pos++
		case c == '-':
			l.emit(tokMinus, "-")
			l.pos++
		case c == '=':
			l.emit(tokOp, "=")
			l.pos++
		case c == '!':
			if l.peek(1) == '=' {
				l.emit(tokOp, "!=")
				l.pos += 2
			} else {
				return nil, fmt.Errorf("query: unexpected '!' at offset %d", l.pos)
			}
		case c == '<':
			if l.peek(1) == '=' {
				l.emit(tokOp, "<=")
				l.pos += 2
			} else if l.peek(1) == '>' {
				l.emit(tokOp, "!=")
				l.pos += 2
			} else {
				l.emit(tokOp, "<")
				l.pos++
			}
		case c == '>':
			if l.peek(1) == '=' {
				l.emit(tokOp, ">=")
				l.pos += 2
			} else {
				l.emit(tokOp, ">")
				l.pos++
			}
		case c == '\'' || c == '"':
			s, err := l.lexString(c)
			if err != nil {
				return nil, err
			}
			l.emit(tokString, s)
		case unicode.IsDigit(rune(c)):
			l.emit(tokNumber, l.lexWhile(func(r byte) bool {
				return unicode.IsDigit(rune(r)) || r == '.'
			}))
		case isIdentStart(c):
			l.emit(tokIdent, l.lexWhile(isIdentPart))
		default:
			return nil, fmt.Errorf("query: unexpected character %q at offset %d", c, l.pos)
		}
	}
}

func (l *lexer) emit(k tokenKind, text string) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: l.pos})
}

func (l *lexer) peek(ahead int) byte {
	if l.pos+ahead >= len(l.src) {
		return 0
	}
	return l.src[l.pos+ahead]
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func (l *lexer) lexWhile(pred func(byte) bool) string {
	start := l.pos
	for l.pos < len(l.src) && pred(l.src[l.pos]) {
		l.pos++
	}
	return l.src[start:l.pos]
}

func (l *lexer) lexString(quote byte) (string, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			l.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("query: unterminated string starting at offset %d", start)
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}
