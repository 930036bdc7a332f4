package core

import (
	"strconv"
	"strings"

	"db2www/internal/cgi"
	"db2www/internal/obs"
)

// varDef is the engine-internal state of one macro-defined variable. The
// statements it points at belong to the (shared, immutable) parsed macro.
type varDef struct {
	list    bool          // declared with %LIST
	sep     *Template     // separator template (list variables)
	assigns []*DefineStmt // assignment history: all kept for list vars, last wins otherwise
	exec    *DefineStmt   // the %EXEC statement, when the variable is one
}

// scope is one level of system variables: report column names and values,
// or the variables of a %SQL_MESSAGE entry. appendVar appends the value
// bound to name and reports whether the scope binds it at all.
type scope interface {
	appendVar(buf []byte, name string) ([]byte, bool)
}

// mapScope is a scope of a few fixed bindings.
type mapScope map[string]string

func (m mapScope) appendVar(buf []byte, name string) ([]byte, bool) {
	v, ok := m[name]
	return append(buf, v...), ok
}

// VarTable implements the run-time variable substitution mechanism of
// Sections 3.1 and 4.3: a single name space unifying HTML input variables
// (which take priority), macro DEFINE variables (lazily evaluated), and
// system report variables (innermost scope wins). Undefined names
// evaluate to the null string. Circular references are an error.
//
// Every evaluation appends into a caller-supplied buffer: a value that is
// null is one that appended nothing, and a conditional that must take its
// text back truncates.
type VarTable struct {
	inputs *cgi.Form
	defs   map[string]*varDef
	scopes []scope
	// execOutputs holds <name>_OUTPUT bindings captured from %EXEC
	// commands (an extension; see runExec).
	execOutputs map[string]string
	engine      *Engine // for %EXEC command execution; may be nil
	macro       string  // macro name for error messages
	// trace, when non-nil, is the request's record and receives every
	// variable dereference. Scope (per-row report) hits are not recorded:
	// they are data plumbing, not macro logic, and would swamp the record
	// on large reports.
	trace *obs.Trace
	// visiting holds the names being dereferenced, outermost first: a name
	// met again is a circular reference, and its length is the depth the
	// record notes.
	visiting []string
	// derefs and refStart are the dereferences the reference being expanded
	// from depth 0 has made and where its text began in the buffer, for
	// maxDerefs and maxRefBytes.
	derefs, refStart int
	// static is the Static the table belongs to: the table notes for it
	// what each expansion reads (Static.read) and the shape of a command
	// (appendParts). The request path leaves it nil.
	static *Static
}

// NewVarTable creates a table over the given HTML input variables.
// inputs may be nil.
func NewVarTable(macro string, inputs *cgi.Form) *VarTable {
	if inputs == nil {
		inputs = cgi.NewForm()
	}
	return &VarTable{inputs: inputs, defs: map[string]*varDef{}, macro: macro}
}

// ApplyDefine registers the statements of one %DEFINE section. Value
// strings are stored unevaluated (lazy substitution, Section 4.3.1).
func (vt *VarTable) ApplyDefine(sec *DefineSection) {
	for i := range sec.Stmts {
		st := &sec.Stmts[i]
		if st.value == nil { // hand-built statement: Parse compiles its own
			c := *st
			c.compile()
			st = &c
		}
		vt.applyStmt(st)
	}
}

func (vt *VarTable) applyStmt(st *DefineStmt) {
	def, ok := vt.defs[st.Name]
	if !ok {
		def = &varDef{}
		vt.defs[st.Name] = def
	}
	switch st.Kind {
	case DefList:
		def.list = true
		def.sep = st.sep
	case DefExec:
		def.exec = st
		def.assigns = nil
	default:
		def.exec = nil
		if !def.list {
			def.assigns = def.assigns[:0]
		}
		def.assigns = append(def.assigns, st)
	}
}

func (vt *VarTable) pushScope(s scope) { vt.scopes = append(vt.scopes, s) }

func (vt *VarTable) popScope() { vt.scopes = vt.scopes[:len(vt.scopes)-1] }

// Lookup evaluates a variable by name, applying the full substitution
// semantics. It returns the empty string for undefined names.
func (vt *VarTable) Lookup(name string) (string, error) {
	buf, err := vt.appendVar(nil, name)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// Expand evaluates a value string: literal text with $(name) references
// substituted and $$(name) escapes reduced to $(name).
func (vt *VarTable) Expand(tpl string) (string, error) {
	return vt.expandTemplate(compileTemplate(tpl))
}

// expandTemplate evaluates a compiled value string.
func (vt *VarTable) expandTemplate(t *Template) (string, error) {
	if s, ok := t.literal(); ok {
		return s, nil
	}
	buf, err := vt.appendTemplate(nil, t)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// appendTemplate evaluates a compiled value string onto buf.
func (vt *VarTable) appendTemplate(buf []byte, t *Template) ([]byte, error) {
	buf, _, err := vt.appendParts(buf, t.parts, nil, nil)
	return buf, err
}

// appendParts evaluates parts onto buf and additionally reports whether
// any referenced variable evaluated to null — the information the
// conditional form "var = ? value" needs (Section 3.1.2 cases b and d).
// bound, when non-nil, is what a report scope resolved each of parts to
// (rowScope.bind) and row the row being printed: a reference bound to a
// column reads the row directly, one bound to a %DEFINE wrapper evaluates
// the wrapper's value the same way, every other one is evaluated by name.
//
// While a Static shapes a command, this call is its top level: it notes each
// literal run and reference, and a reference that fails is a hole of the
// shape, spanning what it appended before it failed, instead of the call's
// error.
func (vt *VarTable) appendParts(buf []byte, parts []part, bound []rowRef, row []Field) ([]byte, bool, error) {
	sawNull := false
	var sh *Shape
	if vt.static != nil {
		sh, vt.static.shape = vt.static.shape, nil
	}
	for k := range parts {
		p := &parts[k]
		if sh != nil && p.lit != "" {
			sh.Segs = append(sh.Segs, Segment{Out: len(buf), End: len(buf) + len(p.lit), Src: p.at})
		}
		buf = append(buf, p.lit...)
		if !p.ref {
			continue
		}
		b := &unbound
		if bound != nil {
			b = &bound[k]
		}
		if b.col >= 0 {
			if f := &row[b.col]; f.Null || f.S == "" {
				sawNull = true
			} else {
				buf = appendXform(buf, f.S, p.xform)
			}
			continue
		}
		mark := len(buf)
		x, name := p.xform, p.name
		var err error
		if b.wrap != nil {
			// What appendVar would do for name, without looking it up again:
			// appendAssign on the assignment bind found, and the record. The
			// value's references are all bound to columns and cannot fail.
			var null bool
			buf, null, _ = vt.appendParts(buf, b.wrap.value.parts, b.inner, row)
			if null && b.wrap.Kind == DefCondSelf {
				buf = buf[:mark]
			}
			vt.trace.Var(name, len(vt.visiting), "define", len(buf) == mark)
		} else {
			if p.dyn != nil {
				// Late evaluation: the body's own references first, then the
				// name (and transform prefix) they spell.
				if buf, _, err = vt.appendParts(buf, p.dyn, nil, nil); err == nil {
					x, name = splitXform(string(buf[mark:]))
					buf = buf[:mark]
				}
			}
			if err == nil {
				buf, err = vt.appendVar(buf, name)
			}
			if err != nil && sh == nil {
				return buf, false, err
			}
		}
		switch {
		case len(buf) == mark:
			sawNull = true
		case x != xformNone:
			buf = appendXform(buf[:mark], string(buf[mark:]), x)
		}
		if sh != nil {
			sh.Segs = append(sh.Segs, Segment{Out: mark, End: len(buf), Src: p.off, Ref: true, Name: p.name,
				Hole: err != nil || vt.static.reached})
			vt.static.reached = false
		}
	}
	return buf, sawNull, nil
}

// rowWrapper decides, once per report, whether a %ROW reference to name is
// on every row what its last assignment says: literal text around columns
// of the row. It is when nothing that outranks the assignment can answer —
// no scope, no HTML input variable, no %EXEC output now or (no %EXEC
// variable being defined) later — name is no list variable, the assignment
// is "name = value" or "name = ? value", and value refers only to columns
// the result has. It returns that assignment and its value's columns.
func (vt *VarTable) rowWrapper(name string, rs *rowScope) (*DefineStmt, []rowRef) {
	def := vt.defs[name]
	if def == nil || def.list || len(def.assigns) == 0 || vt.inputs.Has(name) {
		return nil, nil
	}
	if _, ok := vt.execOutputs[name]; ok {
		return nil, nil
	}
	for _, d := range vt.defs {
		if d.exec != nil {
			return nil, nil
		}
	}
	for _, s := range vt.scopes {
		if _, ok := s.appendVar(nil, name); ok {
			return nil, nil
		}
	}
	st := def.assigns[len(def.assigns)-1]
	if st.Kind != DefSimple && st.Kind != DefCondSelf {
		return nil, nil
	}
	inner := rs.columns(st.value.parts)
	for k := range inner {
		if st.value.parts[k].ref && inner[k].col < 0 {
			return nil, nil
		}
	}
	return st, inner
}

// appendSource evaluates a value string met at run time (an HTML input
// value), which is parsed for references like any other.
func (vt *VarTable) appendSource(buf []byte, src string) ([]byte, error) {
	if strings.IndexByte(src, '$') < 0 {
		return append(buf, src...), nil
	}
	return vt.appendTemplate(buf, compileTemplate(src))
}

// maxDerefDepth bounds how many variables one chain of dereferences passes
// through, each a few frames deeper (appendVar → appendBound →
// appendSource …) and each searching visiting. Form fields can chain
// ("a1=$(a2)&a2=$(a3)&…"), and a 1 MiB body holds tens of thousands of
// them: unbounded, that was quadratic in the body and as deep as the body
// is long. The deepest chain of the macro corpora is 3 variables, of the
// linter's generated %DEFINE chains 7; TestDeepNestingDepth pins 201.
// Past the bound the reference fails as a circular one does.
const maxDerefDepth = 256

// maxDerefs and maxRefBytes bound the width of what one reference expanded
// from depth 0 does: the dereferences it makes and the bytes it appends,
// checked as it makes each one.
// Form fields can fan out ("a0=$(a1)$(a1)&a1=$(a2)$(a2)&…"), and each field
// doubles the work: 20 fields took 0.6 s even when every chain ended null,
// 40 would ask for 2⁴⁰ bytes. The widest reference of the golden corpus and
// the four benchmark workloads makes 9 dereferences and appends 178 bytes;
// 10 000 dereferences cost a few milliseconds, and 4 MiB is four times the
// largest form a request can post, so any one form value fits. Past either
// bound the reference fails as a circular one does.
const (
	maxDerefs   = 10_000
	maxRefBytes = 4 << 20
)

// appendVar appends the value of name; a null value (empty or undefined —
// indistinguishable per Section 2.2) appends nothing. Priority order
// (Section 4.3): innermost report scope, then HTML input variables, then
// macro definitions.
func (vt *VarTable) appendVar(buf []byte, name string) ([]byte, error) {
	// 1. System/report scopes, innermost first.
	for i := len(vt.scopes) - 1; i >= 0; i-- {
		if out, ok := vt.scopes[i].appendVar(buf, name); ok {
			return out, nil
		}
	}
	// depth is how many dereferences deep this resolution sits: 0 when the
	// name was referenced directly from a template, +1 per chained $(...).
	depth := len(vt.visiting)
	if depth == 0 {
		vt.derefs, vt.refStart = 0, len(buf)
	}
	if v, ok := vt.execOutputs[name]; ok {
		vt.trace.Var(name, depth, "exec", v == "")
		return append(buf, v...), nil
	}
	if depth == maxDerefDepth {
		return buf, errAt(vt.macro, 0, "reference chain deeper than %d variables at variable %q", maxDerefDepth, name)
	}
	if vt.derefs++; vt.derefs > maxDerefs || len(buf)-vt.refStart > maxRefBytes {
		return buf, errAt(vt.macro, 0, "reference makes more than %d dereferences or %d bytes at variable %q", maxDerefs, maxRefBytes, name)
	}
	for _, n := range vt.visiting {
		if n == name {
			return buf, errAt(vt.macro, 0, "circular reference involving variable %q", name)
		}
	}
	vt.visiting = append(vt.visiting, name)
	mark := len(buf)
	buf, source, err := vt.appendBound(buf, name)
	vt.visiting = vt.visiting[:depth]
	if err == nil {
		vt.trace.Var(name, depth, source, len(buf) == mark)
		vt.static.read(name, source)
	}
	return buf, err
}

// appendBound evaluates name from the HTML input variables or the macro
// definitions and names which of them answered, for the record.
func (vt *VarTable) appendBound(buf []byte, name string) ([]byte, string, error) {
	def := vt.defs[name]
	mark := len(buf)

	// 2. HTML input variables override macro definitions. Input values
	// are themselves parsed for references (Section 4.3.2), which is what
	// makes the $$(hidden) idiom of Appendix A work.
	if vals := vt.inputs.GetAll(name); len(vals) > 0 {
		if len(vals) == 1 {
			buf, err := vt.appendSource(buf, vals[0])
			return buf, "input", err
		}
		// Multiply-assigned input variable: a list variable with comma
		// as the default separator (Section 2.2), overridable by %LIST.
		sep := ","
		if def != nil && def.list {
			var err error
			if sep, err = vt.expandTemplate(def.sep); err != nil {
				return buf, "", err
			}
		}
		for _, raw := range vals {
			item := len(buf)
			if item > mark {
				buf = append(buf, sep...)
			}
			n := len(buf)
			var err error
			if buf, err = vt.appendSource(buf, raw); err != nil {
				return buf, "", err
			}
			if len(buf) == n {
				buf = buf[:item]
			}
		}
		return buf, "input", nil
	}

	// 3. Macro definitions.
	switch {
	case def == nil:
		return buf, "undefined", nil
	case def.exec != nil:
		buf, err := vt.runExec(buf, name, def.exec)
		return buf, "exec", err
	case def.list:
		sep, err := vt.expandTemplate(def.sep)
		if err != nil {
			return buf, "", err
		}
		for _, st := range def.assigns {
			// "the list variable evaluation is intelligent enough to add
			// delimiters only if the individual value strings are not
			// null" (Section 3.1.3).
			item := len(buf)
			if item > mark {
				buf = append(buf, sep...)
			}
			n := len(buf)
			if buf, err = vt.appendAssign(buf, st); err != nil {
				return buf, "", err
			}
			if len(buf) == n {
				buf = buf[:item]
			}
		}
		return buf, "list", nil
	case len(def.assigns) == 0:
		// Declared (%LIST removed or bare) but never assigned.
		return buf, "define", nil
	}
	buf, err := vt.appendAssign(buf, def.assigns[len(def.assigns)-1])
	return buf, "define", err
}

// appendAssign evaluates one assignment statement's right-hand side.
func (vt *VarTable) appendAssign(buf []byte, st *DefineStmt) ([]byte, error) {
	mark := len(buf)
	var err error
	switch st.Kind {
	case DefSimple:
		return vt.appendTemplate(buf, st.value)
	case DefCondTest:
		if buf, err = vt.appendVar(buf, st.TestVar); err != nil {
			return buf, err
		}
		switch {
		case len(buf) > mark:
			return vt.appendTemplate(buf[:mark], st.value)
		case st.HasElse:
			return vt.appendTemplate(buf, st.value2)
		}
		return buf, nil
	case DefCondSelf:
		var sawNull bool
		buf, sawNull, err = vt.appendParts(buf, st.value.parts, nil, nil)
		if sawNull {
			buf = buf[:mark]
		}
		return buf, err
	}
	return buf, errAt(vt.macro, st.Line, "internal: unexpected assignment kind %d", st.Kind)
}

// runExec executes a %EXEC variable's command. The variable's value is
// the command's non-zero exit code, or null on success (Section 3.1.4).
// Captured standard output is exposed as <name>_OUTPUT in a system scope
// (a documented extension; the paper leaves command output unspecified).
func (vt *VarTable) runExec(buf []byte, name string, st *DefineStmt) ([]byte, error) {
	cmdline, err := vt.expandTemplate(st.value)
	if err != nil {
		return buf, err
	}
	if vt.engine == nil || vt.engine.Commands == nil {
		return buf, errAt(vt.macro, 0, "%%EXEC variable used but no command registry is configured")
	}
	code, output := vt.engine.Commands.Run(cmdline)
	if vt.execOutputs == nil {
		vt.execOutputs = map[string]string{}
	}
	vt.execOutputs[name+"_OUTPUT"] = output
	if code == 0 {
		return buf, nil
	}
	return strconv.AppendInt(buf, int64(code), 10), nil
}

// escapeHTML escapes the five HTML-special characters.
func escapeHTML(s string) string {
	if !strings.ContainsAny(s, `&<>"'`) {
		return s
	}
	return string(appendHTML(make([]byte, 0, len(s)+8), s))
}

// appendHTML appends s with the five HTML-special characters escaped.
func appendHTML(buf []byte, s string) []byte {
	for {
		i := strings.IndexAny(s, `&<>"'`)
		if i < 0 {
			return append(buf, s...)
		}
		buf = append(buf, s[:i]...)
		switch s[i] {
		case '&':
			buf = append(buf, "&amp;"...)
		case '<':
			buf = append(buf, "&lt;"...)
		case '>':
			buf = append(buf, "&gt;"...)
		case '"':
			buf = append(buf, "&quot;"...)
		case '\'':
			buf = append(buf, "&#39;"...)
		}
		s = s[i+1:]
	}
}
