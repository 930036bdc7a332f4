package core

import (
	"strings"

	"db2www/internal/htmlutil"
	"db2www/internal/obs"
)

// Static is a macro's variables as the engine evaluates them under an empty
// request: a VarTable holding every %DEFINE section of the macro, with no
// form and no report scope. It is what the linter means by "statically
// resolvable". A value is static when the expansion raised no error (a
// cycle) and reached nothing a request may supply (read). The VarTable
// notes both for it as it expands, and, while shape is set, the top level
// of the command being shaped (appendParts).
type Static struct {
	vt      *VarTable
	inputs  map[string]bool // the macro's form controls
	reached bool
	shape   *Shape
}

// NewStatic builds the static view of m.
func NewStatic(m *Macro) *Static {
	s := &Static{vt: NewVarTable(m.Name, nil), inputs: InputNames(m)}
	s.vt.static = s
	for _, sec := range m.Sections {
		if d, ok := sec.(*DefineSection); ok {
			s.vt.ApplyDefine(d)
		}
	}
	return s
}

// Def is what the engine evaluates name by (VarTable.applyStmt's record of
// its statements), or nil when no %DEFINE names it. It is read-only.
func (s *Static) Def(name string) *Def { return s.vt.table.defs[name] }

// Inputs is the macro's form controls (InputNames).
func (s *Static) Inputs() map[string]bool { return s.inputs }

// Expand returns the expansion of a value string and whether it is static.
func (s *Static) Expand(tpl string) (string, bool) {
	s.reached = false
	val, err := s.vt.appendTemplate(nil, compileTemplate(tpl))
	if err != nil || s.reached {
		return "", false
	}
	return string(val), true
}

// read notes that name was answered by source, the request record's word
// for it: anything but a %DEFINE or %LIST that is no form control is the
// request's — a form control, a name no %DEFINE binds. (Static holds no
// report or message scope.)
func (s *Static) read(name string, source obs.VarSource) {
	if s != nil && (source != obs.SourceDefine && source != obs.SourceList || s.inputs[name]) {
		s.reached = true
	}
}

// Shape is a %SQL command as the engine expands it under an empty request,
// cut where the request reaches in. A statement is built by textual
// substitution (Sections 4.2 and 4.3), so a statement is a shape with holes:
// a top-level reference whose expansion reached the request, or failed, is a
// hole. Text is the expansion; Skeleton is Text with each hole outside a
// string literal a "?" and each one inside a literal left out, a statement
// the SQL parser reads. Segs cover Text exactly once, in order.
type Shape struct {
	Text, Skeleton string
	Segs           []Segment
	// Params counts the "?" of the template's own text outside string
	// literals, which the holes' "?" would be numbered among.
	Params int
	src    []int // Src of each byte of Skeleton, and of its end
}

// Segment is a literal run of the command template or one top-level
// reference, and where it sits in Text and in the template.
type Segment struct {
	Out, End int    // its span in Text
	Src      int    // the template offset of its first byte, or of the reference's "$("
	Ref      bool   // a reference, else literal text
	Name     string // the reference's variable; "" for the late-evaluated $(A$(B))
	Hole     bool   // a reference whose expansion reached the request or failed
	// A hole inside a string literal: the literal opens at Open in Skeleton,
	// and Known is its content before the hole.
	InLit bool
	Open  int
	Known string
}

// Shape expands sec's command as the request path does, noting its segments.
func (s *Static) Shape(sec *SQLSection) *Shape {
	sh := &Shape{}
	s.shape, s.reached = sh, false
	buf, _, _ := s.vt.appendParts(nil, sec.command.parts, nil, nil)
	sh.Text = string(buf)
	sh.cut()
	return sh
}

// cut builds Skeleton and the holes' literal state. The quote state is read
// from the macro's own bytes only — literal runs and the values of
// references that are no holes — with the lexer's rule that a doubled
// quote inside a literal is a quote, and the substitution's that a quote
// just before a hole closes the literal: the text is substituted first and
// lexed second.
func (sh *Shape) cut() {
	var b, known []byte
	var in, pending bool // inside a literal; inside one, just after a quote
	open, end := 0, 0
	for i := range sh.Segs {
		g := &sh.Segs[i]
		if g.Hole {
			in, pending = in && !pending, false
			if g.InLit = in; in {
				g.Open, g.Known = open, string(known)
			} else {
				b, sh.src, end = append(b, '?'), append(sh.src, g.Src), g.Src
			}
			continue
		}
		text := sh.Text[g.Out:g.End]
		for j := 0; j < len(text); j++ {
			if g.Ref {
				sh.src, end = append(sh.src, g.Src), g.Src
			} else {
				sh.src, end = append(sh.src, g.Src+j), g.Src+j+1
			}
			c := text[j]
			if c == '?' && !in && !pending && !g.Ref {
				sh.Params++
			}
			if pending {
				if pending = false; c == '\'' {
					known = append(known, c)
					continue
				}
				in = false
			}
			switch {
			case in && c == '\'':
				pending = true
			case in:
				known = append(known, c)
			case c == '\'':
				in, open, known = true, len(b)+j, known[:0]
			}
		}
		b = append(b, text...)
	}
	sh.Skeleton, sh.src = string(b), append(sh.src, end)
}

// Src maps an offset in Skeleton to the template: a byte of literal text to
// its own offset, a byte of a reference's value to the reference's "$(".
func (sh *Shape) Src(off int) int {
	if off < 0 {
		return 0
	}
	return sh.src[min(off, len(sh.src)-1)]
}

// Variables returns the sets of variable names a macro defines and
// references (in any section). Used by macrocheck's -vars mode.
func Variables(m *Macro) (defined, referenced map[string]bool) {
	defined = map[string]bool{}
	referenced = map[string]bool{}
	for _, sec := range m.Sections {
		if s, ok := sec.(*DefineSection); ok {
			for _, st := range s.Stmts {
				defined[st.Name] = true
			}
		}
	}
	EachValue(m, func(v Value) {
		refs, _, _ := v.Template.Refs()
		for _, r := range refs {
			if !r.Dynamic {
				referenced[r.Name] = true
			}
		}
	})
	return defined, referenced
}

// WalkHTMLItems visits every item, descending into %IF arms and %ELSE
// bodies.
func WalkHTMLItems(items []HTMLItem, fn func(HTMLItem)) {
	for _, it := range items {
		fn(it)
		if it.Cond != nil {
			for _, arm := range it.Cond.Arms {
				WalkHTMLItems(arm.Items, fn)
			}
			WalkHTMLItems(it.Cond.Else, fn)
		}
	}
}

// IsSystemVariable reports whether name is one the engine binds at run
// time (report variables and message variables).
func IsSystemVariable(name string) bool {
	switch name {
	case "ROW_NUM", "NLIST", "VLIST", "RPT_MAXROWS", "RPT_STARTROW",
		"SQL_STATE", "SQL_MESSAGE", "SHOWSQL", "TRACE_ID":
		return true
	}
	_, _, col := ReportColumn(name)
	return col
}

// ReportColumn decodes a report variable that addresses a result column:
// Vi or Ni, i a 1-based column number in canonical decimal (no leading
// zero), or V.name or N.name. It returns the number, 0 for the by-name form,
// and the name. Any other spelling is an ordinary variable name.
func ReportColumn(name string) (n int, col string, ok bool) {
	if len(name) < 2 || name[0] != 'V' && name[0] != 'N' {
		return 0, "", false
	}
	rest := name[1:]
	if rest[0] == '.' {
		return 0, rest[1:], true
	}
	if rest[0] == '0' || len(rest) > 9 {
		return 0, "", false
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return 0, "", false
		}
		n = n*10 + int(rest[i]-'0')
	}
	return n, "", true
}

// InputNames extracts the NAME attributes of form controls in the
// macro's HTML input section — the variables the Web client will supply.
func InputNames(m *Macro) map[string]bool {
	out := map[string]bool{}
	h := m.HTMLInput()
	if h == nil {
		return out
	}
	var raw strings.Builder
	WalkHTMLItems(h.Items, func(it HTMLItem) {
		if !it.ExecSQL && it.Cond == nil {
			raw.WriteString(it.Text)
		}
	})
	for _, tok := range htmlutil.Tokenize(raw.String()) {
		if tok.Kind != htmlutil.TokStart {
			continue
		}
		switch tok.Tag {
		case "input", "select", "textarea":
			if name, ok := tok.Attr("name"); ok && name != "" {
				out[name] = true
			}
		}
	}
	return out
}
