package core

import (
	"strings"

	"db2www/internal/htmlutil"
	"db2www/internal/obs"
)

// Static is a macro's variables as the engine evaluates them under an empty
// request: a VarTable holding every %DEFINE section of the macro, with no
// form, no report scope and no command registry. It is what the linter means
// by "statically resolvable". A value is static when the expansion raised no
// error (a cycle, or %EXEC without a registry), every name it dereferenced
// was answered by a %DEFINE or %LIST (the sources the request record keeps,
// so the request path carries nothing for it), and none of them is a form
// control of the macro, which a request may supply.
type Static struct {
	vt     *VarTable
	rec    obs.Trace
	inputs map[string]bool
}

// NewStatic builds the static view of m.
func NewStatic(m *Macro) *Static {
	s := &Static{vt: NewVarTable(m.Name, nil), inputs: InputNames(m)}
	s.vt.trace = &s.rec
	for _, sec := range m.Sections {
		if d, ok := sec.(*DefineSection); ok {
			s.vt.ApplyDefine(d)
		}
	}
	return s
}

// Inputs is the macro's form controls (InputNames).
func (s *Static) Inputs() map[string]bool { return s.inputs }

// Lookup returns the value of name and whether it is static.
func (s *Static) Lookup(name string) (string, bool) {
	s.rec = obs.Trace{Vars: s.rec.Vars[:0]}
	return s.static(s.vt.appendVar(nil, name))
}

// Expand returns the expansion of a value string and whether it is static.
func (s *Static) Expand(tpl string) (string, bool) {
	s.rec = obs.Trace{Vars: s.rec.Vars[:0]}
	return s.static(s.vt.appendTemplate(nil, compileTemplate(tpl)))
}

func (s *Static) static(val []byte, err error) (string, bool) {
	if err != nil || s.rec.VarsDropped > 0 {
		return "", false
	}
	for _, v := range s.rec.Vars {
		if v.Source != "define" && v.Source != "list" || s.inputs[v.Name] {
			return "", false
		}
	}
	return string(val), true
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
	eachValueString(m, func(src string, _ **Template) {
		refs, _ := ParseTemplate(src)
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
// time (report variables, message variables, %EXEC outputs).
func IsSystemVariable(name string) bool {
	switch name {
	case "ROW_NUM", "NLIST", "VLIST", "RPT_MAXROWS", "RPT_STARTROW",
		"SQL_STATE", "SQL_MESSAGE", "SHOWSQL", "TRACE_ID":
		return true
	}
	if strings.HasSuffix(name, "_OUTPUT") {
		return true
	}
	if len(name) >= 2 && (name[0] == 'V' || name[0] == 'N') {
		rest := name[1:]
		if rest[0] == '.' {
			return true
		}
		digits := true
		for _, r := range rest {
			if r < '0' || r > '9' {
				digits = false
				break
			}
		}
		if digits {
			return true
		}
	}
	return false
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
