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

// sqlKeywords is the set of reserved words recognised by the parser.
// Non-reserved function names (UPPER, COUNT, ...) are plain identifiers.
var sqlKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"OFFSET": true, "FETCH": true, "FIRST": true, "ROWS": true, "ONLY": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "DROP": true, "TABLE": true, "INDEX": true,
	"UNIQUE": true, "PRIMARY": true, "KEY": true, "NOT": true, "NULL": true,
	"DEFAULT": true, "AND": true, "OR": true, "LIKE": true, "ESCAPE": true,
	"BETWEEN": true, "IN": true, "IS": true, "AS": true, "ON": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "OUTER": true,
	"CROSS": true, "DISTINCT": true, "ALL": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "BEGIN": true, "COMMIT": true,
	"ROLLBACK": true, "WORK": true, "TRANSACTION": true, "TRUE": true,
	"FALSE": true, "EXISTS": true, "IF": true, "CAST": true, "UNION": true,
	"ALTER": true, "ADD": true, "COLUMN": true, "RENAME": true, "TO": true,
	"INTEGER": true, "INT": true, "SMALLINT": true, "BIGINT": true,
	"VARCHAR": true, "CHAR": true, "CHARACTER": true, "TEXT": true,
	"DOUBLE": true, "FLOAT": true, "REAL": true, "DECIMAL": true,
	"NUMERIC": true, "BOOLEAN": true, "PRECISION": true,
	"EXPLAIN": true, "ANALYZE": true,
}

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
	for {
		tok, err := lx.next()
		if err != nil {
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
// (rows or a count, cacheable or not) need not lex the rest.
func HeadKeyword(sql string) string {
	lx := lexer{src: sql}
	if t, err := lx.next(); err == nil && t.kind == tkKeyword {
		return t.text
	}
	return ""
}

func (lx *lexer) next() (token, error) {
	lx.skipSpaceAndComments()
	if lx.pos >= len(lx.src) {
		return token{kind: tkEOF, pos: lx.pos}, nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case c == '\'':
		return lx.lexString(start)
	case c == '"':
		return lx.lexQuotedIdent(start)
	case c >= '0' && c <= '9', c == '.' && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1]):
		return lx.lexNumber(start)
	case isIdentStart(rune(c)):
		return lx.lexWord(start)
	case c == '?':
		lx.pos++
		return token{kind: tkParam, text: "?", pos: start}, nil
	default:
		return lx.lexOp(start)
	}
}

func (lx *lexer) skipSpaceAndComments() {
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
				lx.pos = len(lx.src)
			} else {
				lx.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func (lx *lexer) lexString(start int) (token, error) {
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
			return token{kind: tkString, text: sb.String(), pos: start}, nil
		}
		sb.WriteByte(lx.src[i])
		i++
	}
	return token{}, errSyntax("unterminated string literal at offset %d", start)
}

func (lx *lexer) lexQuotedIdent(start int) (token, error) {
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
			return token{kind: tkIdent, text: sb.String(), pos: start}, nil
		}
		sb.WriteByte(lx.src[i])
		i++
	}
	return token{}, errSyntax("unterminated quoted identifier at offset %d", start)
}

func (lx *lexer) lexNumber(start int) (token, error) {
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
			return token{kind: tkNumber, text: text, pos: start, num: NewInt(n)}, nil
		}
		// Fall through to float for out-of-range integers.
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, errSyntax("invalid numeric literal %q at offset %d", text, start)
	}
	return token{kind: tkNumber, text: text, pos: start, num: NewFloat(f)}, nil
}

func (lx *lexer) lexWord(start int) (token, error) {
	i := lx.pos
	for i < len(lx.src) && isIdentPart(rune(lx.src[i])) {
		i++
	}
	word := lx.src[lx.pos:i]
	lx.pos = i
	up := strings.ToUpper(word)
	if sqlKeywords[up] {
		return token{kind: tkKeyword, text: up, pos: start}, nil
	}
	return token{kind: tkIdent, text: word, pos: start}, nil
}

// two-character operators, longest match first.
var twoCharOps = []string{"<>", "!=", "<=", ">=", "||"}

func (lx *lexer) lexOp(start int) (token, error) {
	if lx.pos+1 < len(lx.src) {
		pair := lx.src[lx.pos : lx.pos+2]
		for _, op := range twoCharOps {
			if pair == op {
				lx.pos += 2
				return token{kind: tkOp, text: op, pos: start}, nil
			}
		}
	}
	c := lx.src[lx.pos]
	switch c {
	case '+', '-', '*', '/', '%', '=', '<', '>', '(', ')', ',', ';', '.':
		lx.pos++
		return token{kind: tkOp, text: string(c), pos: start}, nil
	}
	return token{}, errSyntax("unexpected character %q at offset %d", string(c), start)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || r == '#' || unicode.IsLetter(r) || unicode.IsDigit(r)
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
