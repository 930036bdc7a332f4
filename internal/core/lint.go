package core

import (
	"strings"

	"db2www/internal/htmlutil"
)

// refsInTemplate extracts the statically resolvable variable names
// referenced by $(name) patterns in a template. The second result
// reports whether an unterminated "$(" was seen.
func refsInTemplate(tpl string) ([]string, bool) {
	refs, unterminated := ParseTemplate(tpl)
	var names []string
	for _, r := range refs {
		if !r.Dynamic {
			names = append(names, r.Name)
		}
	}
	return names, len(unterminated) > 0
}

// EscapeNames returns the names inside $$(name) escapes. An escape emits
// a literal $(name) into the page — the Appendix A idiom that round-trips
// a reference through a hidden form field for later evaluation — so an
// escaped name counts as a use of the variable.
func EscapeNames(tpl string) []string {
	var names []string
	i := 0
	for i < len(tpl) {
		if !strings.HasPrefix(tpl[i:], "$$(") {
			i++
			continue
		}
		end := strings.IndexByte(tpl[i+3:], ')')
		if end < 0 {
			break
		}
		names = append(names, tpl[i+3:i+3+end])
		i += 3 + end + 1
	}
	return names
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
		refs, _ := refsInTemplate(src)
		for _, r := range refs {
			referenced[r] = true
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
