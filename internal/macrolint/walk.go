package macrolint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"db2www/internal/core"
	"db2www/internal/sqlsema"
)

// varFacts is what the one walk over the %DEFINE graph knows of a name:
// how attacker data reaches it (taint) and which values it can hold when a
// statement runs (class).
type varFacts struct {
	taint taintInfo
	class classInfo
}

// classInfo is a macro variable's value class, with a non-numeric value
// it can take and the definition chain it came by, for messages.
type classInfo struct {
	class  sqlsema.VarClass
	sample string
	chain  string
}

// onPath is the facts of a name met again on the walk's own path: a
// definition cycle, which fails at run time. It contributes no taint and an
// unknown class to the names that reach it.
var onPath = &varFacts{}

// walk computes the facts of every defined variable, depth first in
// definition order, and with them the definition cycles: once per lint
// pass, read by the taint, cycle and schema-aware analyzers.
func (e *env) walk() {
	e.facts = map[string]*varFacts{}
	for _, name := range e.order {
		e.fact(name)
	}
	// A name whose facts were kept while a name it reads was still on the
	// path read that name as onPath, without taint, though only the walk's
	// order, not the engine, put it in a cycle. Taint only grows, so
	// carrying it along every edge until nothing changes ends.
	for changed := true; changed; {
		changed = false
		for _, name := range e.order {
			f := e.facts[name]
			if f.taint.level != taintNone || e.inputs[name] || engineReadVars[name] {
				continue
			}
			if worst := e.inflow(e.static.Def(name)); worst != nil {
				f.taint, changed = indirect(name, worst), true
			}
		}
	}
}

// indirect is the taint of a defined name that reads worst: any hop through
// a definition demotes to indirect, since the macro author interposed a
// template, which is the Appendix A idiom.
func indirect(name string, worst *taintInfo) taintInfo {
	return taintInfo{level: taintIndirect, chain: append([]string{name}, worst.chain...), origin: worst.origin}
}

// inflow is the worst taint among the references of what the engine
// evaluates def by — its assignments' values and the %LIST separator —
// walking each, and each conditional test variable, first.
func (e *env) inflow(def *core.Def) *taintInfo {
	var worst *taintInfo
	flow := func(t *tpl) {
		if t == nil {
			return
		}
		for _, r := range t.refs {
			if r.Dynamic {
				continue
			}
			// $(@sq:) doubles quotes — the sanitizer.
			if sub := e.fact(r.Name); r.Prefix != "@sq:" && sub.taint.level > taintNone &&
				(worst == nil || sub.taint.level > worst.level) {
				worst = &sub.taint
			}
		}
	}
	for _, st := range def.Assigns {
		value, value2 := st.Templates()
		flow(e.tpls[value])
		if st.Kind == core.DefCondTest {
			flow(e.tpls[value2])
			e.fact(st.TestVar)
		}
	}
	flow(e.tpls[def.Sep])
	return worst
}

// fact returns the facts of name, walking the definitions it dereferences
// when it is expanded first: the references of what the engine evaluates it
// by (core.Static.Def), conditional test variables, and the %LIST separator.
func (e *env) fact(name string) *varFacts {
	if f := e.facts[name]; f != nil {
		return f
	}
	def := e.static.Def(name)
	if def != nil {
		for i, n := range e.path {
			if n == name {
				e.noteCycle(e.path[i:])
				return onPath
			}
		}
		e.path = append(e.path, name)
	}
	var worst *taintInfo
	if def != nil {
		worst = e.inflow(def)
	}

	f := &varFacts{}
	switch {
	case e.inputs[name]:
		f.taint = taintInfo{level: taintDirect, chain: []string{name}, origin: fmt.Sprintf("form input %q", name)}
	case (def == nil && core.IsSystemVariable(name)) || engineReadVars[name]:
		// Undefined report/message variables carry database values, not
		// request input, and engine-read names are operator configuration.
		// A %DEFINE of a report variable's name is what the engine evaluates
		// outside a report row, so it carries its definition's taint.
	case def == nil:
		f.taint = taintInfo{level: taintDirect, chain: []string{name},
			origin: fmt.Sprintf("%q has no definition, so only the request can supply it", name)}
	case worst != nil:
		f.taint = indirect(name, worst)
	}
	switch {
	case e.inputs[name]:
		f.class = classInfo{class: sqlsema.ClassInput, chain: "a form input"}
	case def == nil && core.IsSystemVariable(name):
	case def == nil:
		// Undefined references substitute the null string, or whatever
		// the request supplies: request-controlled for our purposes.
		f.class = classInfo{class: sqlsema.ClassInput, chain: "not defined in the macro"}
	default:
		f.class = e.classOf(def)
	}
	e.facts[name] = f
	if def != nil {
		e.path = e.path[:len(e.path)-1]
	}
	return f
}

// noteCycle records a definition cycle, each loop once whatever member
// the walk entered it by.
func (e *env) noteCycle(cycle []string) {
	key := canonicalCycle(cycle)
	for _, c := range e.cycles {
		if canonicalCycle(c) == key {
			return
		}
	}
	e.cycles = append(e.cycles, append([]string(nil), cycle...))
}

// canonicalCycle keys a cycle independently of its starting point.
func canonicalCycle(cycle []string) string {
	names := append([]string(nil), cycle...)
	sort.Strings(names)
	return strings.Join(names, "\x00")
}

// classOf infers the value class of a defined variable from the
// assignments the engine evaluates it by: which values can it hold when the SQL
// section executes? An arm the engine expands statically classifies by
// whether its value parses as a number; an arm that is exactly one
// reference forwards that variable's class. Anything request- or
// environment-dependent degrades to ClassUnknown or ClassInput, which the
// type checker treats as unfalsifiable.
func (e *env) classOf(def *core.Def) classInfo {
	if def.List {
		return classInfo{}
	}
	var sawNum, sawText, sawInput, sawUnknown bool
	var sample, chain string
	arm := func(t *tpl, line int) {
		if val, static := e.static.Expand(t.Text); static {
			if sqlsema.Numeric(val) {
				sawNum = true
				return
			}
			sawText = true
			if sample == "" {
				sample, chain = val, "%DEFINE at line "+strconv.Itoa(line)
			}
			return
		}
		if len(t.refs) != 1 || len(t.unterminated) > 0 {
			sawUnknown = true
			return
		}
		r := t.refs[0]
		if r.Dynamic || r.Prefix != "" || strings.TrimSpace(t.Text[:r.Offset]) != "" || strings.TrimSpace(t.Text[r.End:]) != "" {
			sawUnknown = true
			return
		}
		ci := e.fact(r.Name).class
		switch ci.class {
		case sqlsema.ClassNumber:
			sawNum = true
		case sqlsema.ClassText, sqlsema.ClassMaybeText:
			sawText = true
			sawUnknown = sawUnknown || ci.class == sqlsema.ClassMaybeText
			if sample == "" {
				sample, chain = ci.sample, "via $("+r.Name+")"
				if ci.chain != "" {
					chain += ", " + ci.chain
				}
			}
		case sqlsema.ClassInput:
			sawInput = true
		default:
			sawUnknown = true
		}
	}
	for _, st := range def.Assigns {
		value, value2 := st.Templates()
		switch st.Kind {
		case core.DefSimple:
			arm(e.tpls[value], st.Line)
		case core.DefCondTest:
			arm(e.tpls[value], st.Line)
			if st.HasElse {
				arm(e.tpls[value2], st.Line)
			} else {
				sawUnknown = true // missing else arm yields the null string
			}
		default:
			// "name = ? value" is null whenever a reference in value is.
			sawUnknown = true
		}
	}
	var class sqlsema.VarClass
	switch {
	case sawText && !sawNum && !sawInput && !sawUnknown:
		class = sqlsema.ClassText
	case sawText:
		class = sqlsema.ClassMaybeText
	case sawUnknown:
		class = sqlsema.ClassUnknown
	case sawInput:
		class = sqlsema.ClassInput
	case sawNum:
		class = sqlsema.ClassNumber
	}
	return classInfo{class: class, sample: sample, chain: chain}
}
