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
}

// fact returns the facts of name, walking the definitions it dereferences
// when it is expanded first: the references of its run-time-effective
// value templates, conditional test variables, and the %LIST separator.
func (e *env) fact(name string) *varFacts {
	if f := e.facts[name]; f != nil {
		return f
	}
	v := e.vars[name]
	if v != nil {
		for i, n := range e.path {
			if n == name {
				e.noteCycle(e.path[i:])
				return onPath
			}
		}
		e.path = append(e.path, name)
	}
	var worst *taintInfo
	flow := func(t *tpl, taints bool) {
		if t == nil {
			return
		}
		for _, r := range t.refs {
			if r.Dynamic {
				continue
			}
			// $(@sq:) doubles quotes — the sanitizer.
			if sub := e.fact(r.Name); taints && r.Prefix != "@sq:" && sub.taint.level > taintNone &&
				(worst == nil || sub.taint.level > worst.level) {
				worst = &sub.taint
			}
		}
	}
	if v != nil {
		for _, a := range v.effective() {
			// An %EXEC variable holds command output, not request data.
			flow(a.value, a.st.Kind != core.DefExec)
			if a.st.Kind == core.DefCondTest {
				flow(a.value2, true)
				e.fact(a.st.TestVar)
			}
		}
		flow(v.sep, true)
	}

	f := &varFacts{}
	switch {
	case e.inputs[name]:
		f.taint = taintInfo{level: taintDirect, chain: []string{name}, origin: fmt.Sprintf("form input %q", name)}
	case core.IsSystemVariable(name) || engineReadVars[name]:
		// Report/message variables carry database values, not request
		// input, and engine-read names are operator configuration.
	case v == nil:
		f.taint = taintInfo{level: taintDirect, chain: []string{name},
			origin: fmt.Sprintf("%q has no definition, so only the request can supply it", name)}
	case worst != nil:
		// Any hop through a definition demotes to indirect: the macro
		// author interposed a template, which is the Appendix A idiom.
		f.taint = taintInfo{level: taintIndirect, chain: append([]string{name}, worst.chain...), origin: worst.origin}
	}
	switch {
	case e.inputs[name]:
		f.class = classInfo{class: sqlsema.ClassInput, chain: "a form input"}
	case core.IsSystemVariable(name):
	case v == nil:
		// Undefined references substitute the null string, or whatever
		// the request supplies: request-controlled for our purposes.
		f.class = classInfo{class: sqlsema.ClassInput, chain: "not defined in the macro"}
	default:
		f.class = e.classOf(v)
	}
	e.facts[name] = f
	if v != nil {
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

// classOf infers the value class of a defined variable from its
// run-time-effective assignments: which values can it hold when the SQL
// section executes? An arm the engine expands statically classifies by
// whether its value parses as a number; an arm that is exactly one
// reference forwards that variable's class. Anything request- or
// environment-dependent degrades to ClassUnknown or ClassInput, which the
// type checker treats as unfalsifiable.
func (e *env) classOf(v *varInfo) classInfo {
	if v.exec || v.list {
		return classInfo{}
	}
	var sawNum, sawText, sawInput, sawUnknown bool
	var sample, chain string
	arm := func(t *tpl, line int) {
		if val, static := e.static.Expand(t.text); static {
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
		if r.Dynamic || r.Prefix != "" || strings.TrimSpace(t.text[:r.Offset]) != "" || strings.TrimSpace(t.text[r.End:]) != "" {
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
	for _, a := range v.effective() {
		switch a.st.Kind {
		case core.DefSimple:
			arm(a.value, a.st.Line)
		case core.DefCondTest:
			arm(a.value, a.st.Line)
			if a.st.HasElse {
				arm(a.value2, a.st.Line)
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
