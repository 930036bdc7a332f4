package core

import (
	"cmp"
	"strings"

	"db2www/internal/cgi"
)

// Template is a value string compiled once: literal text interleaved with
// $(name) reference slots, "$$(" escapes already reduced and transform
// prefixes already resolved. core.Parse compiles every value string of a
// macro, so expanding one at request time is a walk over its parts that
// appends into the caller's buffer — nothing is scanned twice. The one
// scanner below serves the engine (VarTable) and the tooling
// (Template.Refs) alike, so the two cannot disagree on what a reference
// is.
type Template struct {
	parts        []part
	unterminated []int    // offsets of every "$(" / "$$(" left open
	escapes      []string // names inside "$$(name)" escapes, for Refs
}

// maxRefNesting bounds how deep "$(" references nest inside one another: a
// reference nested deeper is literal text of the reference around it. The
// deepest reference of testdata/, examples/ and benchmark/macros is one level
// (no reference nests in another); 16 levels leave room for the
// late-evaluated $(A$(B)) form and then some. Each level rescans its body
// for the balancing ")", so without the bound k nested "$(" cost O(k²) byte
// steps and k frames in every walk over the parts — and a form value is
// compiled for references on every request.
const maxRefNesting = 16

// part is a run of literal text followed by at most one reference.
type part struct {
	lit   string
	ref   bool
	name  string // static reference: the variable name, prefix stripped
	xform xform
	// dyn is set for the late-evaluated $(A$(B)) form: the reference body
	// compiled as a template of its own. It is expanded first and the
	// result (transform prefix included) names the variable to read.
	dyn []part
	// at is the template offset of lit; raw, off and end describe the
	// reference, for Refs and Static.Shape.
	raw          string
	at, off, end int
}

// xform is a transform prefix inside $(prefix:name). The prefixes are a
// documented extension over the paper (which substitutes raw text
// everywhere): @html HTML-escapes the value, @sq doubles single quotes
// for safe inclusion in SQL string literals, @url percent-encodes it.
type xform uint8

const (
	xformNone xform = iota
	xformHTML
	xformSQ
	xformURL
)

var xformPrefixes = [...]string{xformNone: "", xformHTML: "@html:", xformSQ: "@sq:", xformURL: "@url:"}

// splitXform strips a transform prefix from a reference body.
func splitXform(raw string) (xform, string) {
	if strings.HasPrefix(raw, "@") {
		for x := xformHTML; x <= xformURL; x++ {
			if strings.HasPrefix(raw, xformPrefixes[x]) {
				return x, raw[len(xformPrefixes[x]):]
			}
		}
	}
	return xformNone, raw
}

// appendXform appends s under transform x.
func appendXform(buf []byte, s string, x xform) []byte {
	switch x {
	case xformHTML:
		return appendHTML(buf, s)
	case xformSQ:
		for {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				return append(buf, s...)
			}
			buf = append(append(buf, s[:i+1]...), '\'')
			s = s[i+1:]
		}
	case xformURL:
		return append(buf, cgi.EncodeComponent(s)...)
	}
	return append(buf, s...)
}

// compileTemplate compiles a value string. It never fails: an unterminated "$("
// or "$$(" is emitted literally from that point on (lenient, as the era's
// tools were) and its offset recorded for the linter.
func compileTemplate(src string) *Template {
	t := &Template{}
	t.parts = t.compileParts(src, 0, 1)
	return t
}

// compileParts scans tpl, whose first byte sits at offset base of the
// outermost template and whose references sit depth levels deep.
func (t *Template) compileParts(tpl string, base, depth int) []part {
	if depth > maxRefNesting {
		return []part{{lit: tpl, at: base}}
	}
	var parts []part
	lit := 0 // start of the pending literal run
	i := 0
	for {
		d := strings.IndexByte(tpl[i:], '$')
		if d < 0 {
			break
		}
		i += d
		// "$$(name)" emits a literal "$(name)" with no dereference: drop
		// the first '$' and step over the rest.
		if strings.HasPrefix(tpl[i:], "$$(") {
			end := strings.IndexByte(tpl[i+3:], ')')
			if end < 0 {
				t.unterminated = append(t.unterminated, base+i)
				break
			}
			if i > lit {
				parts = append(parts, part{lit: tpl[lit:i], at: base + lit})
			}
			t.escapes = append(t.escapes, tpl[i+3:i+3+end])
			lit = i + 1
			i += 3 + end + 1
			continue
		}
		if !strings.HasPrefix(tpl[i:], "$(") {
			i++
			continue
		}
		// A reference closes at the ')' that balances its nested "$(".
		open, closed := 0, -1
		for j := i + 2; j < len(tpl); j++ {
			if strings.HasPrefix(tpl[j:], "$(") {
				open++
				j++
			} else if tpl[j] == ')' {
				if open == 0 {
					closed = j
					break
				}
				open--
			}
		}
		if closed < 0 {
			t.unterminated = append(t.unterminated, base+i)
			break
		}
		p := part{lit: tpl[lit:i], at: base + lit, ref: true, raw: tpl[i+2 : closed], off: base + i, end: base + closed + 1}
		if strings.Contains(p.raw, "$(") {
			p.dyn = t.compileParts(p.raw, base+i+2, depth+1)
		} else {
			p.xform, p.name = splitXform(p.raw)
		}
		parts = append(parts, p)
		i = closed + 1
		lit = i
	}
	if lit < len(tpl) {
		parts = append(parts, part{lit: tpl[lit:], at: base + lit})
	}
	return parts
}

// sizeHint is what an expansion of t may come to: its literal text and
// 32 bytes a reference.
func (t *Template) sizeHint() int {
	n := 0
	for i := range t.parts {
		n += len(t.parts[i].lit)
		if t.parts[i].ref {
			n += 32
		}
	}
	return n
}

// literal reports whether the template holds no references, and if so
// the text it expands to.
func (t *Template) literal() (string, bool) {
	switch len(t.parts) {
	case 0:
		return "", true
	case 1:
		return t.parts[0].lit, !t.parts[0].ref
	}
	return "", false
}

// TemplateRef is one $(name) reference found in a value template by
// Template.Refs. Offset/End are byte offsets of the '$' and of the byte
// just past the closing ')' within the template text.
//
// A reference whose body itself contains a $( — the late-evaluated
// $(A$(B)) form, legal because the engine substitutes the inner
// reference when the outer name is dereferenced — is marked Dynamic: its
// effective name cannot be resolved statically, so Name is empty and Raw
// holds the unexpanded body. The inner references are reported as
// TemplateRefs in their own right.
type TemplateRef struct {
	Raw     string // text between the parens, transform prefix included
	Name    string // Raw minus any transform prefix; "" when Dynamic
	Prefix  string // "@html:", "@sq:", "@url:", or ""
	Offset  int    // byte offset of '$' in the template
	End     int    // byte offset just past ')'
	Dynamic bool   // body contains a nested $( reference
}

// Refs returns every $(name) reference of the template, matching nested
// references with balanced parentheses; the byte offset of every
// unterminated "$(" (or "$$("), so tooling can point at the exact position;
// and the names inside $$(name) escapes, as the scanner stepped over them.
// An escape emits a literal $(name) into the page — the Appendix A idiom
// that round-trips a reference through a hidden form field for later
// evaluation — so an escaped name counts as a use of the variable.
func (t *Template) Refs() (refs []TemplateRef, unterminated []int, escapes []string) {
	return appendRefs(nil, t.parts), t.unterminated, t.escapes
}

// appendRefs lists the references of parts, inner before outer: the inner
// ones are evaluated first at run time.
func appendRefs(refs []TemplateRef, parts []part) []TemplateRef {
	for _, p := range parts {
		if !p.ref {
			continue
		}
		if p.dyn != nil {
			refs = appendRefs(refs, p.dyn)
		}
		refs = append(refs, TemplateRef{Raw: p.raw, Name: p.name, Prefix: xformPrefixes[p.xform],
			Offset: p.off, End: p.end, Dynamic: p.dyn != nil})
	}
	return refs
}

// compileTemplates compiles every value string of a parsed macro, so that
// the engine never scans macro text at request time.
func compileTemplates(m *Macro) {
	eachValue(m, func(v Value, compiled **Template) { *compiled = compileTemplate(v.Text) })
}

// ValueKind says where a value string sits in a macro.
type ValueKind uint8

// Value-string kinds.
const (
	ValDefine  ValueKind = iota // a %DEFINE value: "v", "? v", the v1 of "t ? v1 : v2"
	ValElse                     // the v2 of "t ? v1 : v2"
	ValListSep                  // a %LIST separator
	ValSQL                      // a %SQL command
	ValHeader                   // a %SQL_REPORT header
	ValRow                      // a %ROW block
	ValFooter                   // a %SQL_REPORT footer
	ValMessage                  // a %SQL_MESSAGE entry's text
	ValHTML                     // HTML section text
	ValCond                     // a side of an %IF or %ELIF condition
	ValExecSQL                  // an %EXEC_SQL section name
)

// Value is one value string of a macro — text that may hold $(name)
// references — with its compiled form and where it sits.
type Value struct {
	Text     string
	Template *Template
	Kind     ValueKind
	Line     int     // the line of its first byte
	Section  Section // the section it sits in
	// Name is the variable of a %DEFINE value or the code of a
	// %SQL_MESSAGE entry.
	Name string
}

// EachValue calls fn with every value string of a parsed macro, in source
// order.
func EachValue(m *Macro, fn func(Value)) {
	eachValue(m, func(v Value, compiled **Template) {
		v.Template = *compiled
		fn(v)
	})
}

// eachValue calls fn for every value string of the macro together with the
// field its compiled form is kept in.
func eachValue(m *Macro, fn func(v Value, compiled **Template)) {
	for _, sec := range m.Sections {
		switch s := sec.(type) {
		case *DefineSection:
			for i := range s.Stmts {
				st := &s.Stmts[i]
				val := Value{Text: st.Value, Kind: ValDefine, Line: st.Line, Section: s, Name: st.Name}
				fn(val, &st.value)
				val.Text, val.Kind = st.Value2, ValElse
				fn(val, &st.value2)
				val.Text, val.Kind = st.Sep, ValListSep
				fn(val, &st.sep)
			}
		case *SQLSection:
			fn(Value{Text: s.Command, Kind: ValSQL, Line: cmp.Or(s.CmdLine, s.Line), Section: s}, &s.command)
			if rb := s.Report; rb != nil {
				row := rb.Line + strings.Count(rb.Header, "\n")
				fn(Value{Text: rb.Header, Kind: ValHeader, Line: rb.Line, Section: s}, &rb.header)
				fn(Value{Text: rb.Row, Kind: ValRow, Line: row, Section: s}, &rb.row)
				fn(Value{Text: rb.Footer, Kind: ValFooter, Line: row + strings.Count(rb.Row, "\n"), Section: s}, &rb.footer)
			}
			if s.Message != nil {
				for i := range s.Message.Entries {
					e := &s.Message.Entries[i]
					fn(Value{Text: e.Text, Kind: ValMessage, Line: e.Line, Section: s, Name: e.Code}, &e.text)
				}
			}
		case *HTMLSection:
			eachItemValue(s, s.Items, fn)
		}
	}
}

func eachItemValue(s *HTMLSection, items []HTMLItem, fn func(v Value, compiled **Template)) {
	for i := range items {
		it := &items[i]
		switch {
		case it.Cond != nil:
			for j := range it.Cond.Arms {
				arm := &it.Cond.Arms[j]
				fn(Value{Text: arm.Left, Kind: ValCond, Line: arm.Line, Section: s}, &arm.left)
				fn(Value{Text: arm.Right, Kind: ValCond, Line: arm.Line, Section: s}, &arm.right)
				eachItemValue(s, arm.Items, fn)
			}
			eachItemValue(s, it.Cond.Else, fn)
		case it.ExecSQL:
			fn(Value{Text: it.SQLName, Kind: ValExecSQL, Line: it.Line, Section: s}, &it.sqlName)
		default:
			// HTMLItem.Line is the line of the chunk's end, where it was
			// flushed.
			fn(Value{Text: it.Text, Kind: ValHTML, Line: it.Line - strings.Count(it.Text, "\n"), Section: s}, &it.text)
		}
	}
}

// Templates returns the compiled forms of Value and Value2.
func (st *DefineStmt) Templates() (value, value2 *Template) { return st.value, st.value2 }

// compile fills in the compiled value strings of a hand-built statement.
func (st *DefineStmt) compile() {
	st.value, st.value2, st.sep = compileTemplate(st.Value), compileTemplate(st.Value2), compileTemplate(st.Sep)
}
