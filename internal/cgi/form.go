// Package cgi implements the Common Gateway Interface protocol of the
// paper's Section 2.3 and Figure 4: percent-encoding, QUERY_STRING
// encoding and decoding, POST form bodies, PATH_INFO parsing, the CGI
// environment-variable set, and two invocation harnesses — an in-process
// harness (for the gateway and benchmarks) and a real subprocess harness
// that forks an executable per request exactly as a 1996 web server did.
package cgi

import (
	"fmt"
	"strings"
)

// Pair is one name=value pair. The zero value is an empty pair.
type Pair struct {
	Name  string
	Value string
}

// Form is an ordered multimap of input variables. Order and multiplicity
// are significant: the paper's list-valued variables (Section 2.2, the
// DBFIELD example) arrive as repeated name=value pairs whose values are
// later joined in arrival order.
type Form struct {
	pairs []Pair
}

// NewForm returns an empty form.
func NewForm() *Form { return &Form{} }

// Add appends a name=value pair, preserving arrival order.
func (f *Form) Add(name, value string) {
	f.pairs = append(f.pairs, Pair{Name: name, Value: value})
}

// Set replaces all pairs named name with a single pair.
func (f *Form) Set(name, value string) {
	kept := f.pairs[:0]
	replaced := false
	for _, p := range f.pairs {
		if p.Name == name {
			if !replaced {
				kept = append(kept, Pair{Name: name, Value: value})
				replaced = true
			}
			continue
		}
		kept = append(kept, p)
	}
	if !replaced {
		kept = append(kept, Pair{Name: name, Value: value})
	}
	f.pairs = kept
}

// Get returns the first value for name and whether it was present.
// Per the paper, an absent variable and a variable bound to the empty
// string are treated identically by the macro engine; Get still reports
// presence so the CGI layer can round-trip forms exactly.
func (f *Form) Get(name string) (string, bool) {
	for _, p := range f.pairs {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// GetAll returns every value for name in arrival order.
func (f *Form) GetAll(name string) []string {
	var out []string
	for _, p := range f.pairs {
		if p.Name == name {
			out = append(out, p.Value)
		}
	}
	return out
}

// Has reports whether name appears at all.
func (f *Form) Has(name string) bool {
	_, ok := f.Get(name)
	return ok
}

// Del removes all pairs named name.
func (f *Form) Del(name string) {
	kept := f.pairs[:0]
	for _, p := range f.pairs {
		if p.Name != name {
			kept = append(kept, p)
		}
	}
	f.pairs = kept
}

// Pairs returns the pairs in order. The caller must not mutate the slice.
func (f *Form) Pairs() []Pair { return f.pairs }

// Len returns the number of pairs.
func (f *Form) Len() int { return len(f.pairs) }

// Names returns the distinct variable names in first-appearance order.
func (f *Form) Names() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range f.pairs {
		if !seen[p.Name] {
			seen[p.Name] = true
			out = append(out, p.Name)
		}
	}
	return out
}

// Clone returns a deep copy of the form.
func (f *Form) Clone() *Form {
	return &Form{pairs: append([]Pair(nil), f.pairs...)}
}

// Encode renders the form as an application/x-www-form-urlencoded string,
// the exact wire format of QUERY_STRING and POST bodies (Figure 4:
// "var1=value1&var2=value2").
func (f *Form) Encode() string {
	var sb strings.Builder
	for i, p := range f.pairs {
		if i > 0 {
			sb.WriteByte('&')
		}
		sb.WriteString(EncodeComponent(p.Name))
		sb.WriteByte('=')
		sb.WriteString(EncodeComponent(p.Value))
	}
	return sb.String()
}

// ParseForm decodes an application/x-www-form-urlencoded string
// (QUERY_STRING or POST body) into an ordered form. Pairs with empty
// names are skipped; a pair without '=' is treated as name with empty
// value, which the macro engine in turn treats as undefined.
func ParseForm(encoded string) (*Form, error) {
	f := NewForm()
	if encoded == "" {
		return f, nil
	}
	f.pairs = make([]Pair, 0, strings.Count(encoded, "&")+1)
	for rest := encoded; rest != ""; {
		var chunk string
		chunk, rest, _ = strings.Cut(rest, "&")
		if chunk == "" {
			continue
		}
		name, value := chunk, ""
		if i := strings.IndexByte(chunk, '='); i >= 0 {
			name, value = chunk[:i], chunk[i+1:]
		}
		dn, err := DecodeComponent(name)
		if err != nil {
			return nil, fmt.Errorf("cgi: bad name %q: %w", name, err)
		}
		if dn == "" {
			continue
		}
		dv, err := DecodeComponent(value)
		if err != nil {
			return nil, fmt.Errorf("cgi: bad value for %q: %w", dn, err)
		}
		f.Add(dn, dv)
	}
	return f, nil
}

// EncodeComponent percent-encodes one name or value using the
// x-www-form-urlencoded rules: space becomes '+', unreserved characters
// pass through, everything else becomes %XX.
func EncodeComponent(s string) string {
	const hex = "0123456789ABCDEF"
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ':
			sb.WriteByte('+')
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '-' || c == '_' || c == '.' || c == '*':
			sb.WriteByte(c)
		default:
			sb.WriteByte('%')
			sb.WriteByte(hex[c>>4])
			sb.WriteByte(hex[c&0xf])
		}
	}
	return sb.String()
}

// DecodeComponent reverses EncodeComponent: '+' becomes space and %XX
// sequences decode to bytes. Malformed escapes are an error.
func DecodeComponent(s string) (string, error) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, nil // nothing to decode: the text itself
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '+':
			sb.WriteByte(' ')
		case '%':
			if i+2 >= len(s) {
				return "", fmt.Errorf("truncated %%-escape at offset %d", i)
			}
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if !ok1 || !ok2 {
				return "", fmt.Errorf("invalid %%-escape %q at offset %d", s[i:i+3], i)
			}
			sb.WriteByte(hi<<4 | lo)
			i += 2
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String(), nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
