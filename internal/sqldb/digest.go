package sqldb

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Statement digests identify a statement *shape*: the SQL text with every
// literal and parameter replaced by '?', keywords upper-cased, identifiers
// lower-cased, and whitespace/comments normalized away. Two executions of
// "SELECT x FROM t WHERE id = 7" and "select X from T where ID = 9" share
// one digest, so the statement stats registry (and the planned plan cache,
// which will key on the same normalization) aggregates them together.

// NormalizeSQL returns the canonical shape of sql: literals and parameters
// become '?', keywords are upper-cased, identifiers lower-cased, comments
// dropped, and token spacing made uniform. Statements that do not lex fall
// back to a whitespace-collapsed copy of the raw text so callers always
// get a stable key.
func NormalizeSQL(sql string) string {
	toks, err := lexSQL(sql)
	if err != nil {
		return strings.Join(strings.Fields(sql), " ")
	}
	return normalizeTokens(toks)
}

// normalizeTokens renders a lexed token stream in canonical form.
func normalizeTokens(toks []token) string {
	var sb strings.Builder
	prev := ""
	for _, t := range toks {
		if t.kind == tkEOF {
			break
		}
		var text string
		switch t.kind {
		case tkNumber, tkString, tkParam:
			text = "?"
		case tkKeyword:
			text = t.text // the lexer already upper-cases keywords
		case tkIdent:
			text = strings.ToLower(t.text)
		default:
			text = t.text
		}
		if sb.Len() > 0 && spaceBetween(prev, text) {
			sb.WriteByte(' ')
		}
		sb.WriteString(text)
		prev = text
	}
	return sb.String()
}

// spaceBetween decides whether the canonical rendering separates prev and
// next with a space. Punctuation hugs its neighbours the way hand-written
// SQL does: "count(?)", "t.col", "(a, b)".
func spaceBetween(prev, next string) bool {
	switch next {
	case "(", ")", ",", ";", ".":
		return false
	}
	switch prev {
	case "(", ".":
		return false
	}
	return true
}

// DigestSQL returns the statement digest (a 16-hex-digit FNV-64a of the
// normalized shape) together with the normalized text itself.
func DigestSQL(sql string) (digest, norm string) {
	norm = NormalizeSQL(sql)
	return digestOf(norm), norm
}

// DigestSQLInner strips a leading EXPLAIN [ANALYZE] prefix and digests the
// statement underneath it, so an EXPLAIN ANALYZE run can file its plan
// under the digest the bare statement executes as. ok is false when sql is
// not an EXPLAIN statement.
func DigestSQLInner(sql string) (digest, norm string, ok bool) {
	toks, err := lexSQL(sql)
	if err != nil {
		return "", "", false
	}
	if toks, ok = explainTarget(toks); !ok {
		return "", "", false
	}
	norm = normalizeTokens(toks)
	return digestOf(norm), norm, true
}

// explainTarget returns the tokens of the statement under an EXPLAIN
// [ANALYZE] prefix, or toks as they are and false.
func explainTarget(toks []token) ([]token, bool) {
	if toks[0].kind != tkKeyword || toks[0].text != "EXPLAIN" {
		return toks, false
	}
	toks = toks[1:]
	if toks[0].kind == tkKeyword && toks[0].text == "ANALYZE" {
		toks = toks[1:]
	}
	return toks, true
}

func digestOf(norm string) string {
	h := fnv.New64a()
	h.Write([]byte(norm))
	return fmt.Sprintf("%016x", h.Sum64())
}
