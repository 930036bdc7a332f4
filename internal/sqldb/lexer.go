package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind classifies SQL tokens.
type tokKind int

const (
	tkEOF tokKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString // quoted string literal, already unescaped
	tkOp     // operator or punctuation
	tkParam  // ? positional parameter
)

type token struct {
	kind tokKind
	text string // keywords are upper-cased; idents keep original case
	pos  int    // byte offset into the input, for error messages
	num  Value  // parsed value for tkNumber
}

// sqlKeywords is the set of reserved words recognised by the parser, each
// mapped to itself: the lexer finds a keyword by its upper-cased bytes and
// takes the text from here, so a keyword written in lower case costs no
// string. Function names (LENGTH, COUNT, ...) are plain identifiers. The
// words of the SQL the parser refuses (unsupportedKeywords, and the FIRST
// ROWS ONLY, ADD COLUMN, RENAME TO that went with them) stay reserved: a
// refused statement is refused by name, and no identifier that was
// reserved became a name.
var sqlKeywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range strings.Fields(`
		SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET FETCH
		FIRST ROWS ONLY INSERT INTO VALUES UPDATE SET DELETE CREATE DROP TABLE
		INDEX UNIQUE PRIMARY KEY NOT NULL DEFAULT AND OR LIKE ESCAPE BETWEEN IN
		IS AS ON JOIN INNER LEFT RIGHT OUTER CROSS DISTINCT ALL CASE WHEN THEN
		ELSE END BEGIN COMMIT ROLLBACK WORK TRANSACTION TRUE FALSE EXISTS IF
		CAST UNION ALTER ADD COLUMN RENAME TO INTEGER INT SMALLINT BIGINT
		VARCHAR CHAR CHARACTER TEXT DOUBLE FLOAT REAL DECIMAL NUMERIC BOOLEAN
		PRECISION EXPLAIN ANALYZE`) {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword (TRANSACTION).
const maxKeywordLen = 11

// lexer tokenizes a SQL statement string.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lexSQL splits src into tokens. It returns a syntax Error for unterminated
// strings or stray characters.
func lexSQL(src string) ([]token, error) {
	lx := &lexer{src: src}
	var tok token
	for {
		if err := lx.next(&tok); err != nil {
			return nil, err
		}
		lx.toks = append(lx.toks, tok)
		if tok.kind == tkEOF {
			return lx.toks, nil
		}
	}
}

// HeadKeyword returns the keyword sql begins with, upper-cased, after the
// whitespace and comments the lexer skips; "" when it begins with anything
// else. It reads one token: callers that route a statement by its kind
// (an EXPLAIN or not) need not lex the rest.
func HeadKeyword(sql string) string {
	lx := lexer{src: sql}
	var t token
	if err := lx.next(&t); err == nil && t.kind == tkKeyword {
		return t.text
	}
	return ""
}

// next lexes the next token into t, which the caller owns: a token is
// too large to be returned by value through every lexing function, once
// per token of every statement.
func (lx *lexer) next(t *token) error {
	if err := lx.skipSpaceAndComments(); err != nil {
		return err
	}
	if lx.pos >= len(lx.src) {
		*t = token{kind: tkEOF, pos: lx.pos}
		return nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case c == '\'':
		return lx.lexString(t, start)
	case c == '"':
		return lx.lexQuotedIdent(t, start)
	case c >= '0' && c <= '9', c == '.' && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1]):
		return lx.lexNumber(t, start)
	case isIdentStart(rune(c)):
		lx.lexWord(t, start)
		return nil
	case c == '?':
		lx.pos++
		*t = token{kind: tkParam, text: "?", pos: start}
		return nil
	default:
		return lx.lexOp(t, start)
	}
}

// skipSpaceAndComments skips to the next token. A block comment that is
// never closed is a syntax error, not a comment to the end of the text:
// what follows an unclosed /* would otherwise vanish from the statement.
func (lx *lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			// -- line comment
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			// /* block comment */
			end := strings.Index(lx.src[lx.pos+2:], "*/")
			if end < 0 {
				return errSyntax("unterminated comment at offset %d", lx.pos)
			}
			lx.pos += 2 + end + 2
		default:
			return nil
		}
	}
	return nil
}

// lexString lexes the literal at start, unescaped: a slice of the input
// when it has no doubled quote, a copy only when it has.
func (lx *lexer) lexString(t *token, start int) error {
	body := lx.src[lx.pos+1:]
	if n := strings.IndexByte(body, '\''); n >= 0 && (n+1 == len(body) || body[n+1] != '\'') {
		lx.pos += 1 + n + 1
		*t = token{kind: tkString, text: body[:n], pos: start}
		return nil
	}
	var sb strings.Builder
	i := lx.pos + 1
	for i < len(lx.src) {
		if lx.src[i] == '\'' {
			if i+1 < len(lx.src) && lx.src[i+1] == '\'' {
				sb.WriteByte('\'')
				i += 2
				continue
			}
			lx.pos = i + 1
			*t = token{kind: tkString, text: sb.String(), pos: start}
			return nil
		}
		sb.WriteByte(lx.src[i])
		i++
	}
	return errSyntax("unterminated string literal at offset %d", start)
}

func (lx *lexer) lexQuotedIdent(t *token, start int) error {
	var sb strings.Builder
	i := lx.pos + 1
	for i < len(lx.src) {
		if lx.src[i] == '"' {
			if i+1 < len(lx.src) && lx.src[i+1] == '"' {
				sb.WriteByte('"')
				i += 2
				continue
			}
			lx.pos = i + 1
			*t = token{kind: tkIdent, text: sb.String(), pos: start}
			return nil
		}
		sb.WriteByte(lx.src[i])
		i++
	}
	return errSyntax("unterminated quoted identifier at offset %d", start)
}

func (lx *lexer) lexNumber(t *token, start int) error {
	i := lx.pos
	sawDot, sawExp := false, false
	for i < len(lx.src) {
		c := lx.src[i]
		switch {
		case isDigit(c):
			i++
		case c == '.' && !sawDot && !sawExp:
			sawDot = true
			i++
		case (c == 'e' || c == 'E') && !sawExp && i > lx.pos:
			sawExp = true
			i++
			if i < len(lx.src) && (lx.src[i] == '+' || lx.src[i] == '-') {
				i++
			}
		default:
			goto done
		}
	}
done:
	text := lx.src[lx.pos:i]
	lx.pos = i
	if !sawDot && !sawExp {
		n, err := strconv.ParseInt(text, 10, 64)
		if err == nil {
			*t = token{kind: tkNumber, text: text, pos: start, num: NewInt(n)}
			return nil
		}
		// Fall through to float for out-of-range integers.
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return errSyntax("invalid numeric literal %q at offset %d", text, start)
	}
	*t = token{kind: tkNumber, text: text, pos: start, num: NewFloat(f)}
	return nil
}

func (lx *lexer) lexWord(t *token, start int) {
	i := lx.pos
	for i < len(lx.src) && isIdentPart(rune(lx.src[i])) {
		i++
	}
	word := lx.src[lx.pos:i]
	lx.pos = i
	if kw, ok := keyword(word); ok {
		*t = token{kind: tkKeyword, text: kw, pos: start}
	} else {
		*t = token{kind: tkIdent, text: word, pos: start}
	}
}

// keyword returns the keyword word spells in any case. Every keyword is
// ASCII, and no word lexWord takes upper-cases to ASCII unless it is (the
// two runes that do, U+0131 and U+017F, end in bytes isIdentPart refuses),
// so the word is upper-cased byte by byte on the stack.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 0x80 {
			return "", false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := sqlKeywords[string(buf[:len(word)])]
	return kw, ok
}

func (lx *lexer) lexOp(t *token, start int) error {
	n := 1
	if lx.pos+1 < len(lx.src) {
		switch lx.src[lx.pos : lx.pos+2] {
		case "<>", "!=", "<=", ">=", "||": // two-character operators first
			n = 2
		}
	}
	if c := lx.src[lx.pos]; n == 1 && strings.IndexByte("+-*/%=<>(),;.", c) < 0 {
		return errSyntax("unexpected character %q at offset %d", string(c), start)
	}
	lx.pos += n
	*t = token{kind: tkOp, text: lx.src[start:lx.pos], pos: start}
	return nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	if r < 0x80 {
		return r == '_' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z'
	}
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	if r < 0x80 {
		return r == '_' || r == '$' || r == '#' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// describe renders a token for error messages.
func (t token) describe() string {
	switch t.kind {
	case tkEOF:
		return "end of statement"
	case tkString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}
