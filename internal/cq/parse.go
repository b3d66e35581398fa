package cq

import (
	"fmt"
	"strings"
	"unicode"
)

// The textual query language:
//
//	R(x, y | z), S(y | x), T('a', x | 42)
//
// An atom lists its primary-key terms, then a bar, then the remaining terms;
// an atom without a bar is all-key. Variables are identifiers starting with
// a letter or underscore; constants are single-quoted strings (backslash
// escapes ' and \) or bare numeric literals. Whitespace is insignificant and
// '#' starts a comment that extends to the end of the line.

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokConst
	tokLParen
	tokRParen
	tokComma
	tokBar
	tokNewline
)

type token struct {
	kind tokenKind
	text string
	line int
}

type lexer struct {
	input string
	pos   int
	line  int
}

// next scans the next token into t.
func (l *lexer) next(t *token) error {
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		switch {
		case c == '#':
			for l.pos < len(l.input) && l.input[l.pos] != '\n' {
				l.pos++
			}
		case c == '\n':
			l.pos++
			l.line++
			*t = token{kind: tokNewline, line: l.line - 1}
			return nil
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '(':
			l.pos++
			*t = token{kind: tokLParen, line: l.line}
			return nil
		case c == ')':
			l.pos++
			*t = token{kind: tokRParen, line: l.line}
			return nil
		case c == ',':
			l.pos++
			*t = token{kind: tokComma, line: l.line}
			return nil
		case c == '|':
			l.pos++
			*t = token{kind: tokBar, line: l.line}
			return nil
		case c == '\'':
			return l.lexQuoted(t)
		case isDigit(c) || (c == '-' && l.pos+1 < len(l.input) && isDigit(l.input[l.pos+1])):
			l.lexNumber(t)
			return nil
		case isIdentStart(rune(c)):
			l.lexIdent(t)
			return nil
		default:
			return fmt.Errorf("line %d: unexpected character %q", l.line, c)
		}
	}
	*t = token{kind: tokEOF, line: l.line}
	return nil
}

func (l *lexer) lexQuoted(t *token) error {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		switch c {
		case '\\':
			if l.pos+1 >= len(l.input) {
				return fmt.Errorf("line %d: unterminated escape in constant", l.line)
			}
			if l.input[l.pos+1] == '\n' {
				l.line++ // keep line numbers honest across escaped newlines
			}
			b.WriteByte(l.input[l.pos+1])
			l.pos += 2
		case '\'':
			l.pos++
			*t = token{kind: tokConst, text: b.String(), line: l.line}
			return nil
		case '\n':
			return fmt.Errorf("line %d: newline in quoted constant", l.line)
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return fmt.Errorf("line %d: unterminated quoted constant", l.line)
}

func (l *lexer) lexNumber(t *token) {
	start := l.pos
	if l.input[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.input) && (isDigit(l.input[l.pos]) || l.input[l.pos] == '.') {
		l.pos++
	}
	*t = token{kind: tokConst, text: l.input[start:l.pos], line: l.line}
}

func (l *lexer) lexIdent(t *token) {
	start := l.pos
	for l.pos < len(l.input) && isIdentPart(rune(l.input[l.pos])) {
		l.pos++
	}
	*t = token{kind: tokIdent, text: l.input[start:l.pos], line: l.line}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

type parser struct {
	lex lexer
	tok token

	args   []string // term texts of the atom being scanned
	idents []bool   // args[i] is an identifier (a variable in a query)
}

func (p *parser) advance() error { return p.lex.next(&p.tok) }

// skipNewlines advances past newline tokens.
func (p *parser) skipNewlines() error {
	for p.tok.kind == tokNewline {
		if err := p.advance(); err != nil {
			return err
		}
	}
	return nil
}

// scanAtom parses one atom; the current token must be the relation name.
// It appends each term's text to p.args and whether the term is an
// identifier to p.idents (both reset per atom). The grammar itself
// guarantees the signature n >= k >= 1: a bar needs a term on each side.
func (p *parser) scanAtom() (rel string, keyLen int, err error) {
	p.args, p.idents = p.args[:0], p.idents[:0]
	if p.tok.kind != tokIdent {
		return "", 0, fmt.Errorf("line %d: expected relation name, got %q", p.tok.line, p.tok.text)
	}
	rel = p.tok.text
	if err := p.advance(); err != nil {
		return "", 0, err
	}
	if p.tok.kind != tokLParen {
		return "", 0, fmt.Errorf("line %d: expected '(' after relation %s", p.tok.line, rel)
	}
	if err := p.advance(); err != nil {
		return "", 0, err
	}
	keyLen = -1
	for {
		switch p.tok.kind {
		case tokIdent, tokConst:
			p.args = append(p.args, p.tok.text)
			p.idents = append(p.idents, p.tok.kind == tokIdent)
		default:
			return "", 0, fmt.Errorf("line %d: expected term in atom %s", p.tok.line, rel)
		}
		if err := p.advance(); err != nil {
			return "", 0, err
		}
		switch p.tok.kind {
		case tokComma:
			if err := p.advance(); err != nil {
				return "", 0, err
			}
		case tokBar:
			if keyLen >= 0 {
				return "", 0, fmt.Errorf("line %d: atom %s has two key separators", p.tok.line, rel)
			}
			keyLen = len(p.args)
			if err := p.advance(); err != nil {
				return "", 0, err
			}
		case tokRParen:
			if keyLen < 0 {
				keyLen = len(p.args) // all-key
			}
			return rel, keyLen, p.advance()
		default:
			return "", 0, fmt.Errorf("line %d: expected ',', '|' or ')' in atom %s", p.tok.line, rel)
		}
	}
}

// Scanner reads the atoms of a text in the textual language one at a time,
// without building Terms: each atom is its relation name, key length and
// argument texts. ParseQuery is built on it, and the database loader uses
// it to scan fact text straight into facts. Atoms may be separated by
// commas and/or newlines.
type Scanner struct {
	p       parser
	started bool
	rel     string
	keyLen  int
	err     error
}

// NewScanner returns a scanner over input.
func NewScanner(input string) *Scanner {
	return &Scanner{p: parser{lex: lexer{input: input, line: 1}}}
}

// Scan advances to the next atom, reporting false at the end of the input
// or on the first syntax error (see Err).
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	s.rel, s.err = s.scan()
	return s.err == nil && s.rel != ""
}

func (s *Scanner) scan() (string, error) {
	p := &s.p
	if !s.started {
		s.started = true
		if err := p.advance(); err != nil {
			return "", err
		}
	}
	if err := p.skipNewlines(); err != nil {
		return "", err
	}
	if p.tok.kind == tokEOF {
		return "", nil
	}
	rel, keyLen, err := p.scanAtom()
	if err != nil {
		return "", err
	}
	s.keyLen = keyLen
	if err := p.skipNewlines(); err != nil {
		return "", err
	}
	if p.tok.kind == tokComma {
		if err := p.advance(); err != nil {
			return "", err
		}
	}
	return rel, nil
}

// Rel returns the current atom's relation name.
func (s *Scanner) Rel() string { return s.rel }

// KeyLen returns the current atom's key length: the number of terms before
// the bar, or all of them for an atom without one.
func (s *Scanner) KeyLen() int { return s.keyLen }

// Args returns the current atom's argument texts: identifier names and
// constant values alike. The slice is reused by the next Scan.
func (s *Scanner) Args() []string { return s.p.args }

// Err returns the first syntax error, with its line number, or nil.
func (s *Scanner) Err() error { return s.err }

// ParseQuery parses a Boolean conjunctive query in the textual language.
// Atoms may be separated by commas and/or newlines.
func ParseQuery(input string) (Query, error) {
	s := NewScanner(input)
	var atoms []Atom
	for s.Scan() {
		args := make([]Term, len(s.p.args))
		for i, text := range s.p.args {
			if s.p.idents[i] {
				args[i] = Var(text)
			} else {
				args[i] = Const(text)
			}
		}
		atoms = append(atoms, Atom{Rel: s.rel, KeyLen: s.keyLen, Args: args})
	}
	if s.err != nil {
		return Query{}, s.err
	}
	q := Query{Atoms: atoms}
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

// MustParseQuery is ParseQuery panicking on error; for tests and literals.
func MustParseQuery(input string) Query {
	q, err := ParseQuery(input)
	if err != nil {
		panic(err)
	}
	return q
}
