package sqldb

import (
	"strings"
	"unicode/utf8"
)

// likeProgram is a LIKE pattern prepared for matching: the pattern split
// on '%' into parts, the first anchored at the start of the operand, the
// last at its end, the ones between floating. '%' matches any sequence of
// characters (including none), '_' exactly one character. Every pattern
// is valid. Matching is case-sensitive, per SQL-92. A character is a rune
// as []rune(s) would yield it: every byte of invalid UTF-8 counts as one
// U+FFFD.
//
// pattern is what the program was built from, so that its owner can tell
// when it needs another.
type likeProgram struct {
	pattern string
	parts   []likePart // at least one
}

// likePart is the text between two '%'. A part with no '_' hole and no
// U+FFFD is kept as its bytes and matched by byte comparison and search,
// which is exact on characters: the part is valid UTF-8, so its first
// byte is never a continuation byte and an occurrence can only begin
// where a character of the operand begins. Any other part is a rune
// sequence (runes non-nil, likeAny for a hole) walked over the decoded
// operand, where U+FFFD also matches each invalid byte.
type likePart struct {
	text  string
	runes []rune
}

// likeAny marks a '_' hole. Decoding never yields a negative rune, so it
// cannot collide with a pattern character.
const likeAny rune = -1

// compileLike parses a LIKE pattern; it is the only code that does.
func compileLike(pattern string) *likeProgram {
	p := &likeProgram{pattern: pattern}
	var part []rune
	plain := true
	flush := func() {
		if plain {
			p.parts = append(p.parts, likePart{text: string(part)})
		} else {
			p.parts = append(p.parts, likePart{runes: append([]rune(nil), part...)})
		}
		part, plain = part[:0], true
	}
	for _, r := range pattern {
		switch r {
		case '%':
			flush()
			continue
		case '_':
			r = likeAny
		}
		if r == likeAny || r == utf8.RuneError {
			plain = false
		}
		part = append(part, r)
	}
	flush()
	return p
}

// match reports whether s matches the pattern. It does not allocate.
func (p *likeProgram) match(s string) bool {
	n := p.parts[0].matchAt(s)
	if n < 0 {
		return false
	}
	last := len(p.parts) - 1
	if last == 0 {
		return n == len(s)
	}
	s = s[n:]
	for i := 1; i < last; i++ {
		if n = p.parts[i].find(s); n < 0 {
			return false
		}
		s = s[n:]
	}
	return p.parts[last].matchEnd(s)
}

// prefix returns the literal text of a pattern of the form 'text%' with
// no other wildcard: what an ordered index can seek to. ok is false for
// every other pattern, the bare '%' included.
func (p *likeProgram) prefix() (text string, ok bool) {
	if len(p.parts) != 2 || p.parts[0].runes != nil || p.parts[1].runes != nil ||
		p.parts[1].text != "" || p.parts[0].text == "" {
		return "", false
	}
	return p.parts[0].text, true
}

// matchAt matches the part at the very start of s and returns the number
// of bytes it covers, or -1.
func (pt *likePart) matchAt(s string) int {
	if pt.runes == nil {
		if strings.HasPrefix(s, pt.text) {
			return len(pt.text)
		}
		return -1
	}
	pos := 0
	for _, want := range pt.runes {
		if pos == len(s) {
			return -1
		}
		r, w := utf8.DecodeRuneInString(s[pos:])
		if want != likeAny && r != want {
			return -1
		}
		pos += w
	}
	return pos
}

// find returns the offset just past the earliest occurrence of the part
// in s, or -1.
func (pt *likePart) find(s string) int {
	if pt.runes == nil {
		i := strings.Index(s, pt.text)
		if i < 0 {
			return -1
		}
		return i + len(pt.text)
	}
	for start := 0; ; {
		if n := pt.matchAt(s[start:]); n >= 0 {
			return start + n
		}
		if start == len(s) {
			return -1
		}
		_, w := utf8.DecodeRuneInString(s[start:])
		start += w
	}
}

// matchEnd reports whether the part matches at the very end of s.
func (pt *likePart) matchEnd(s string) bool {
	if pt.runes == nil {
		return strings.HasSuffix(s, pt.text)
	}
	skip := utf8.RuneCountInString(s) - len(pt.runes)
	if skip < 0 {
		return false
	}
	for ; skip > 0; skip-- {
		_, w := utf8.DecodeRuneInString(s)
		s = s[w:]
	}
	return pt.matchAt(s) == len(s)
}
