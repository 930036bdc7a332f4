package macrolint

import (
	"fmt"
	"strings"

	"db2www/internal/core"
)

// tplKind classifies where a value template sits — analyzers key sink
// and context decisions off it.
type tplKind int

const (
	tplDefine   tplKind = iota // %DEFINE value / separator template
	tplExecCmd                 // %EXEC command template (a shell sink)
	tplSQL                     // %SQL command template (the SQL sink)
	tplReport                  // %SQL_REPORT header/row/footer
	tplMessage                 // %SQL_MESSAGE entry text
	tplHTML                    // HTML section text
	tplCond                    // %IF condition side
	tplExecName                // %EXEC_SQL section-name template
)

// tpl is one value template with enough position information to turn a
// byte offset into a file line/column.
type tpl struct {
	text  string
	base  int     // 1-based line of the template's first line
	kind  tplKind //
	where string  // human-readable context for messages
	owner string  // defining variable (define templates) or SQL section name
	sec   *core.SQLSection
	// refs, unterminated and escapes are the template's references, inner
	// before outer, its unterminated "$(" offsets and its $$(name) escape
	// names: parsed once, read by every analyzer.
	refs         []core.TemplateRef
	unterminated []int
	escapes      []string
}

// pos maps a byte offset inside the template to (line, col). The column
// is relative to the template's own line start; for a template that does
// not begin at column 1 of its first source line, the first-line column
// is approximate (the macro AST keeps lines, not columns).
func (t *tpl) pos(off int) (line, col int) {
	if off < 0 {
		off = 0
	}
	if off > len(t.text) {
		off = len(t.text)
	}
	pre := t.text[:off]
	line = t.base + strings.Count(pre, "\n")
	if i := strings.LastIndexByte(pre, '\n'); i >= 0 {
		col = off - i
	} else {
		col = off + 1
	}
	return line, col
}

// varInfo is the lint-time view of one %DEFINE variable.
type varInfo struct {
	name      string
	list      bool
	exec      bool
	assigns   []assign // assignment history, section order
	sep       *tpl     // %LIST separator template
	firstLine int
}

// assign is one assignment statement with its value templates.
type assign struct {
	st            core.DefineStmt
	value, value2 *tpl
}

// effective returns the assignments that matter at run time: every one
// for a list variable, otherwise only the last (last wins, as in
// VarTable).
func (v *varInfo) effective() []assign {
	if v.list || len(v.assigns) <= 1 {
		return v.assigns
	}
	return v.assigns[len(v.assigns)-1:]
}

// env is the shared analysis state for one macro, built once and read by
// every analyzer in the pass.
type env struct {
	m         *core.Macro
	file      string
	inputs    map[string]bool // HTML form control names
	vars      map[string]*varInfo
	order     []string // definition order
	templates []*tpl
	static    *core.Static // the engine's values under an empty request

	// The one walk over the %DEFINE graph (walk.go): each name's facts,
	// the walk's path, and the definition cycles it met.
	facts  map[string]*varFacts
	path   []string
	cycles [][]string
}

func (e *env) defined(name string) bool {
	_, ok := e.vars[name]
	return ok
}

// addTpl parses and registers a template; empty templates are not
// registered.
func (e *env) addTpl(t *tpl) *tpl {
	if t.text == "" {
		return t
	}
	e.templates = append(e.templates, t)
	t.refs, t.unterminated = core.ParseTemplate(t.text)
	if strings.Contains(t.text, "$$(") {
		t.escapes = core.EscapeNames(t.text)
	}
	return t
}

// buildEnv walks the macro once, indexing variables, inputs, and every
// value template with its base line.
func buildEnv(m *core.Macro, file string) *env {
	e := &env{
		m:      m,
		file:   file,
		static: core.NewStatic(m),
		vars:   map[string]*varInfo{},
	}
	e.inputs = e.static.Inputs()
	for _, sec := range m.Sections {
		switch s := sec.(type) {
		case *core.DefineSection:
			for _, st := range s.Stmts {
				v, ok := e.vars[st.Name]
				if !ok {
					v = &varInfo{name: st.Name, firstLine: st.Line}
					e.vars[st.Name] = v
					e.order = append(e.order, st.Name)
				}
				switch st.Kind {
				case core.DefList:
					v.list = true
					v.sep = e.addTpl(&tpl{text: st.Sep, base: st.Line, kind: tplDefine,
						where: fmt.Sprintf("%%LIST separator of %q", st.Name), owner: st.Name})
				case core.DefExec:
					v.exec = true
					v.assigns = append(v.assigns, assign{st: st, value: e.addTpl(&tpl{text: st.Value, base: st.Line,
						kind: tplExecCmd, where: fmt.Sprintf("%%EXEC command of %q", st.Name), owner: st.Name})})
				default:
					v.assigns = append(v.assigns, assign{st: st,
						value: e.addTpl(&tpl{text: st.Value, base: st.Line, kind: tplDefine,
							where: fmt.Sprintf("definition of %q", st.Name), owner: st.Name}),
						value2: e.addTpl(&tpl{text: st.Value2, base: st.Line, kind: tplDefine,
							where: fmt.Sprintf("definition of %q (else arm)", st.Name), owner: st.Name})})
				}
			}
		case *core.SQLSection:
			secName := s.SectName
			if secName == "" {
				secName = "(unnamed)"
			}
			base := s.CmdLine
			if base == 0 {
				base = s.Line
			}
			e.addTpl(&tpl{text: s.Command, base: base, kind: tplSQL,
				where: fmt.Sprintf("SQL section %s", secName), owner: s.SectName, sec: s})
			if s.Report != nil {
				rb := s.Report
				e.addTpl(&tpl{text: rb.Header, base: rb.Line, kind: tplReport,
					where: fmt.Sprintf("%%SQL_REPORT header of section %s", secName), owner: s.SectName, sec: s})
				rowBase := rb.Line + strings.Count(rb.Header, "\n")
				e.addTpl(&tpl{text: rb.Row, base: rowBase, kind: tplReport,
					where: fmt.Sprintf("%%ROW block of section %s", secName), owner: s.SectName, sec: s})
				footBase := rowBase + strings.Count(rb.Row, "\n")
				e.addTpl(&tpl{text: rb.Footer, base: footBase, kind: tplReport,
					where: fmt.Sprintf("%%SQL_REPORT footer of section %s", secName), owner: s.SectName, sec: s})
			}
			if s.Message != nil {
				for _, entry := range s.Message.Entries {
					e.addTpl(&tpl{text: entry.Text, base: entry.Line, kind: tplMessage,
						where: fmt.Sprintf("%%SQL_MESSAGE entry %q", entry.Code), owner: s.SectName, sec: s})
				}
			}
		case *core.HTMLSection:
			kind := "%HTML_INPUT"
			if s.Report {
				kind = "%HTML_REPORT"
			}
			core.WalkHTMLItems(s.Items, func(it core.HTMLItem) {
				switch {
				case it.Cond != nil:
					for _, arm := range it.Cond.Arms {
						e.addTpl(&tpl{text: arm.Left, base: arm.Line, kind: tplCond,
							where: fmt.Sprintf("%%IF condition in %s", kind)})
						e.addTpl(&tpl{text: arm.Right, base: arm.Line, kind: tplCond,
							where: fmt.Sprintf("%%IF condition in %s", kind)})
					}
				case it.ExecSQL:
					e.addTpl(&tpl{text: it.SQLName, base: it.Line, kind: tplExecName,
						where: "%EXEC_SQL directive"})
				default:
					// HTMLItem.Line is recorded when the chunk is flushed —
					// the line of its end — so back out the start line.
					base := it.Line - strings.Count(it.Text, "\n")
					e.addTpl(&tpl{text: it.Text, base: base, kind: tplHTML,
						where: kind + " section"})
				}
			})
		}
	}
	e.walk()
	return e
}

// engineReadVars are variable names the engine dereferences itself, so a
// definition with no template reference is still a use.
var engineReadVars = map[string]bool{
	"DATABASE":     true,
	"LOGIN":        true,
	"PASSWORD":     true,
	"SHOWSQL":      true,
	"RPT_MAXROWS":  true,
	"RPT_STARTROW": true,
}
