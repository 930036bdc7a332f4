// Package htmlutil provides the small slice of HTML processing the
// reproduction needs: a tolerant tokenizer and a form parser that models
// what a 1996 Web client did with the paper's Figure 2 markup — extract
// INPUT/SELECT/TEXTAREA variables, apply user interactions, and produce
// the name=value pairs submitted to the server (Figure 3 / Section 2.2).
package htmlutil

import "strings"

// TokenKind classifies tokens.
type TokenKind int

// Token kinds.
const (
	TokText    TokenKind = iota // character data
	TokStart                    // <tag ...>
	TokEnd                      // </tag>
	TokComment                  // <!-- ... -->
)

// Token is one HTML token. Tag names are lower-cased; attribute names are
// lower-cased with values unquoted (entity decoding applied).
type Token struct {
	Kind  TokenKind
	Text  string // raw text for TokText/TokComment
	Tag   string
	Attrs []Attr
}

// Attr is one tag attribute. Bare attributes (e.g. CHECKED) have
// Value == "" and Bare == true.
type Attr struct {
	Name  string
	Value string
	Bare  bool
}

// Attr returns the value of the named attribute and whether it exists.
func (t *Token) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// HasAttr reports whether the named attribute is present (possibly bare).
func (t *Token) HasAttr(name string) bool {
	_, ok := t.Attr(name)
	return ok
}

// Tokenize splits HTML source into tokens. The tokenizer is tolerant in
// the way period browsers were: unknown constructs pass through as text,
// attribute quoting is optional, and case is folded.
func Tokenize(src string) []Token {
	var toks []Token
	i := 0
	for i < len(src) {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			toks = append(toks, Token{Kind: TokText, Text: src[i:]})
			break
		}
		if lt > 0 {
			toks = append(toks, Token{Kind: TokText, Text: src[i : i+lt]})
			i += lt
		}
		// comment?
		if strings.HasPrefix(src[i:], "<!--") {
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				toks = append(toks, Token{Kind: TokComment, Text: src[i+4:]})
				break
			}
			toks = append(toks, Token{Kind: TokComment, Text: src[i+4 : i+4+end]})
			i += 4 + end + 3
			continue
		}
		gt := findTagEnd(src, i)
		if gt < 0 {
			toks = append(toks, Token{Kind: TokText, Text: src[i:]})
			break
		}
		inner := src[i+1 : gt]
		i = gt + 1
		if strings.HasPrefix(inner, "/") {
			toks = append(toks, Token{Kind: TokEnd, Tag: strings.ToLower(strings.TrimSpace(inner[1:]))})
			continue
		}
		tok := parseStartTag(inner)
		toks = append(toks, tok)
	}
	return toks
}

// findTagEnd locates the '>' closing the tag that opens at src[start],
// skipping quoted attribute values.
func findTagEnd(src string, start int) int {
	quote := byte(0)
	for j := start + 1; j < len(src); j++ {
		c := src[j]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case '>':
			return j
		}
	}
	return -1
}

// parseStartTag parses the inside of <...>.
func parseStartTag(inner string) Token {
	tok := Token{Kind: TokStart}
	j := 0
	for j < len(inner) && !isSpace(inner[j]) && inner[j] != '/' {
		j++
	}
	tok.Tag = strings.ToLower(inner[:j])
	for j < len(inner) {
		for j < len(inner) && (isSpace(inner[j]) || inner[j] == '/') {
			j++
		}
		if j >= len(inner) {
			break
		}
		nameStart := j
		for j < len(inner) && !isSpace(inner[j]) && inner[j] != '=' && inner[j] != '/' {
			j++
		}
		name := strings.ToLower(inner[nameStart:j])
		if name == "" {
			j++
			continue
		}
		for j < len(inner) && isSpace(inner[j]) {
			j++
		}
		if j >= len(inner) || inner[j] != '=' {
			tok.Attrs = append(tok.Attrs, Attr{Name: name, Bare: true})
			continue
		}
		j++ // consume '='
		for j < len(inner) && isSpace(inner[j]) {
			j++
		}
		var value string
		if j < len(inner) && (inner[j] == '"' || inner[j] == '\'') {
			q := inner[j]
			j++
			vStart := j
			for j < len(inner) && inner[j] != q {
				j++
			}
			value = inner[vStart:j]
			if j < len(inner) {
				j++
			}
		} else {
			vStart := j
			for j < len(inner) && !isSpace(inner[j]) {
				j++
			}
			value = inner[vStart:j]
		}
		tok.Attrs = append(tok.Attrs, Attr{Name: name, Value: DecodeEntities(value)})
	}
	return tok
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// DecodeEntities decodes the five predefined entities plus numeric
// references — the set period documents used.
func DecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var sb strings.Builder
	i := 0
	for i < len(s) {
		if s[i] != '&' {
			sb.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			sb.WriteByte(s[i])
			i++
			continue
		}
		ent := s[i+1 : i+semi]
		switch {
		case ent == "amp":
			sb.WriteByte('&')
		case ent == "lt":
			sb.WriteByte('<')
		case ent == "gt":
			sb.WriteByte('>')
		case ent == "quot":
			sb.WriteByte('"')
		case ent == "apos" || ent == "#39":
			sb.WriteByte('\'')
		case strings.HasPrefix(ent, "#"):
			n := 0
			ok := len(ent) > 1
			for _, r := range ent[1:] {
				if r < '0' || r > '9' {
					ok = false
					break
				}
				n = n*10 + int(r-'0')
			}
			if ok && n > 0 && n < 0x110000 {
				sb.WriteRune(rune(n))
			} else {
				sb.WriteByte(s[i])
				i++
				continue
			}
		default:
			sb.WriteByte(s[i])
			i++
			continue
		}
		i += semi + 1
	}
	return sb.String()
}
