package macrolint

import (
	"cmp"
	"fmt"
	"strings"

	"db2www/internal/core"
)

// tpl is one value string of the macro (core.EachValue) with its
// references, inner before outer, its unterminated "$(" offsets and its
// $$(name) escape names: read off the compiled template once, read by every
// analyzer.
type tpl struct {
	core.Value
	refs         []core.TemplateRef
	unterminated []int
	escapes      []string
	skel         *skeleton // a %SQL command's, once an analyzer asked (skeletonOf)
}

// pos maps a byte offset inside the template to (line, col). The column
// is relative to the template's own line start; for a template that does
// not begin at column 1 of its first source line, the first-line column
// is approximate (the macro AST keeps lines, not columns).
func (t *tpl) pos(off int) (line, col int) {
	off = min(max(off, 0), len(t.Text))
	pre := t.Text[:off]
	line = t.Line + strings.Count(pre, "\n")
	if i := strings.LastIndexByte(pre, '\n'); i >= 0 {
		col = off - i
	} else {
		col = off + 1
	}
	return line, col
}

// sql is the %SQL section of a command, report or message template.
func (t *tpl) sql() *core.SQLSection {
	s, _ := t.Section.(*core.SQLSection)
	return s
}

// where names the template's place in the macro, for messages.
func (t *tpl) where() string {
	section := "%HTML_INPUT"
	switch s := t.Section.(type) {
	case *core.SQLSection:
		section = cmp.Or(s.SectName, "(unnamed)")
	case *core.HTMLSection:
		if s.Report {
			section = "%HTML_REPORT"
		}
	}
	switch t.Kind {
	case core.ValDefine:
		return fmt.Sprintf("definition of %q", t.Name)
	case core.ValElse:
		return fmt.Sprintf("definition of %q (else arm)", t.Name)
	case core.ValListSep:
		return fmt.Sprintf("%%LIST separator of %q", t.Name)
	case core.ValSQL:
		return "SQL section " + section
	case core.ValHeader:
		return "%SQL_REPORT header of section " + section
	case core.ValRow:
		return "%ROW block of section " + section
	case core.ValFooter:
		return "%SQL_REPORT footer of section " + section
	case core.ValMessage:
		return fmt.Sprintf("%%SQL_MESSAGE entry %q", t.Name)
	case core.ValCond:
		return "%IF condition in " + section
	case core.ValExecSQL:
		return "%EXEC_SQL directive"
	}
	return section + " section"
}

// env is the shared analysis state for one macro, built once and read by
// every analyzer in the pass.
type env struct {
	m         *core.Macro
	file      string
	inputs    map[string]bool // HTML form control names
	static    *core.Static    // the engine's values and definitions under an empty request
	templates []*tpl          // every non-empty value string, in source order
	tpls      map[*core.Template]*tpl
	order     []string       // %DEFINE names, in order of first definition
	firstLine map[string]int // the line of each name's first statement

	// The one walk over the %DEFINE graph (walk.go): each name's facts,
	// the walk's path, and the definition cycles it met.
	facts  map[string]*varFacts
	path   []string
	cycles []defCycle
}

func (e *env) defined(name string) bool { return e.static.Def(name) != nil }

// buildEnv indexes the macro's value strings, as core enumerates them, and
// walks its definitions.
func buildEnv(m *core.Macro, file string) *env {
	e := &env{m: m, file: file, static: core.NewStatic(m), tpls: map[*core.Template]*tpl{}, firstLine: map[string]int{}}
	e.inputs = e.static.Inputs()
	core.EachValue(m, func(v core.Value) {
		t := &tpl{Value: v}
		t.refs, t.unterminated, t.escapes = v.Template.Refs()
		e.tpls[v.Template] = t
		if v.Text != "" {
			e.templates = append(e.templates, t)
		}
		_, seen := e.firstLine[v.Name]
		if _, def := v.Section.(*core.DefineSection); def && !seen {
			e.order = append(e.order, v.Name)
			e.firstLine[v.Name] = v.Line
		}
	})
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
