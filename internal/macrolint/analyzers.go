package macrolint

import (
	"fmt"
	"strings"

	"db2www/internal/core"
)

// runTemplate reports every unterminated "$(" reference with its exact
// line and column. The engine treats the dangling text as a literal, so
// the page silently ships a half-reference.
func runTemplate(p *pass) {
	for _, t := range p.env.templates {
		for _, off := range t.unterminated {
			p.reportAt(t, off, Diagnostic{
				Analyzer: "template",
				Severity: SevWarn,
				Message:  fmt.Sprintf(`unterminated "$(" reference in %s; the text is emitted literally`, t.where()),
				Fix:      "add the closing ')'",
			})
		}
	}
}

// boundName reports whether a reference to name resolves to anything at
// run time: a DEFINE, a form control, or an engine-bound system
// variable.
func boundName(e *env, name string) bool {
	return e.defined(name) || e.inputs[name] ||
		core.IsSystemVariable(name) || engineReadVars[name]
}

// runUndefined flags references that nothing binds — they substitute as
// the null string (paper Section 2.2), which the engine cannot
// distinguish from an intentional empty value.
func runUndefined(p *pass) {
	e := p.env
	for _, t := range e.templates {
		for _, r := range t.refs {
			if r.Dynamic || boundName(e, r.Name) {
				continue
			}
			p.reportAt(t, r.Offset, Diagnostic{
				Analyzer: "undefined",
				Severity: SevWarn,
				Message: fmt.Sprintf("$(%s) in %s has no definition, form input, or system binding; it substitutes as the null string",
					r.Name, t.where()),
				Fix: fmt.Sprintf("define %q or add a form control named %q", r.Name, r.Name),
			})
		}
	}
	// Conditional-definition test variables are dereferenced too, but do
	// not appear as $(name) references in any template.
	for _, st := range e.condTests() {
		if !boundName(e, st.TestVar) {
			p.report(Diagnostic{
				Analyzer: "undefined",
				Severity: SevWarn,
				Line:     st.Line,
				Message: fmt.Sprintf("conditional definition of %q tests %q, which has no definition, form input, or system binding",
					st.Name, st.TestVar),
			})
		}
	}
}

// condTests returns every "t ? v1 : v2" statement the macro writes, whether
// or not the engine keeps it.
func (e *env) condTests() []core.DefineStmt {
	var out []core.DefineStmt
	for _, sec := range e.m.Sections {
		if d, ok := sec.(*core.DefineSection); ok {
			for _, st := range d.Stmts {
				if st.Kind == core.DefCondTest {
					out = append(out, st)
				}
			}
		}
	}
	return out
}

// runUnused flags DEFINE variables nothing ever dereferences. Escaped
// $$(name) occurrences count as uses (the Appendix A hidden-field idiom
// round-trips a reference through the form), as do names the engine
// reads directly.
func runUnused(p *pass) {
	e := p.env
	used := map[string]bool{}
	for _, t := range e.templates {
		for _, r := range t.refs {
			used[r.Name] = true
		}
		for _, n := range t.escapes {
			used[n] = true
		}
	}
	for _, st := range e.condTests() {
		used[st.TestVar] = true
	}
	for _, name := range e.order {
		if used[name] || engineReadVars[name] {
			continue
		}
		p.report(Diagnostic{
			Analyzer: "unused",
			Severity: SevInfo,
			Line:     e.firstLine[name],
			Message:  fmt.Sprintf("%q is defined but never referenced", name),
			Fix:      "remove the definition, or reference it",
		})
	}
}

// runCycle reports the definition cycles, self-references included, that
// the walk over the %DEFINE graph met. Dereferencing a member fails at run
// time: VarTable's visiting-set check. A cycle that an arm of a
// conditional definition closes fails only when the arm is taken, and its
// message names the condition; it is an error all the same, since the
// request can take that arm.
func runCycle(p *pass) {
	for _, c := range p.env.cycles {
		d := Diagnostic{
			Analyzer: "cycle",
			Severity: SevError,
			Line:     p.env.firstLine[c.names[0]],
			Fix:      "break the cycle by inlining one value or introducing a distinct variable",
		}
		when, then := "", ""
		if c.when != "" {
			when, then = ", closed only when "+c.when, " then"
		}
		if len(c.names) == 1 {
			d.Message = fmt.Sprintf("%q references itself in its own definition%s; dereferencing it%s fails at run time",
				c.names[0], when, then)
		} else {
			d.Message = fmt.Sprintf("definition cycle %s -> %s%s; dereferencing any member%s fails at run time",
				strings.Join(c.names, " -> "), c.names[0], when, then)
		}
		p.report(d)
	}
}

// runSections checks cross-section consistency: every %EXEC_SQL must
// have a section to execute, every SQL section should be executable, and
// the engine needs DATABASE to connect.
func runSections(p *pass) {
	e := p.env

	// Duplicate named sections: NamedSQL resolves to the first, so the
	// later definition is dead (and almost certainly a mistake).
	byName := map[string]*core.SQLSection{}
	var unnamed []*core.SQLSection
	for _, s := range e.m.SQLSections() {
		if s.SectName == "" {
			unnamed = append(unnamed, s)
			continue
		}
		if first, dup := byName[s.SectName]; dup {
			p.report(Diagnostic{
				Analyzer: "sections",
				Severity: SevError,
				Line:     s.Line,
				Message: fmt.Sprintf("duplicate SQL section %q (first defined at line %d); %%EXEC_SQL always runs the first",
					s.SectName, first.Line),
				Fix: "rename or remove one of the sections",
			})
			continue
		}
		byName[s.SectName] = s
	}

	// %EXEC_SQL directive targets. A name template containing $(...) is
	// resolved at render time and cannot be checked statically; its
	// presence also means we cannot prove any section unreached.
	targeted := map[string]bool{}
	unnamedExec := false
	dynamicExec := false
	for _, t := range e.templates {
		if t.Kind != core.ValExecSQL {
			continue
		}
		name := strings.TrimSpace(t.Text)
		switch {
		case name == "":
			unnamedExec = true
		case strings.Contains(name, "$("):
			dynamicExec = true
		default:
			targeted[name] = true
			if byName[name] == nil {
				sev := SevError
				msg := fmt.Sprintf("%%EXEC_SQL(%s) targets a SQL section that does not exist", name)
				if len(byName) == 0 && len(unnamed) > 0 {
					msg += "; only unnamed sections are defined"
				}
				p.reportAt(t, 0, Diagnostic{
					Analyzer: "sections",
					Severity: sev,
					Message:  msg,
					Fix:      fmt.Sprintf("add %%SQL(%s){...%%} or fix the name", name),
				})
			}
		}
	}
	// An unnamed %EXEC_SQL in the HTML report with no %EXEC_SQL template
	// at all still needs detecting: tplExecName templates are only added
	// for non-empty names (addTpl skips empty text), so walk the report
	// items directly.
	if rep := e.m.HTMLReport(); rep != nil {
		core.WalkHTMLItems(rep.Items, func(it core.HTMLItem) {
			if it.ExecSQL && strings.TrimSpace(it.SQLName) == "" {
				unnamedExec = true
				if len(unnamed) == 0 {
					msg := "%EXEC_SQL executes the unnamed SQL sections, but the macro has none"
					if len(byName) > 0 {
						msg += "; name the section you mean: %EXEC_SQL(name)"
					}
					p.report(Diagnostic{
						Analyzer: "sections",
						Severity: SevError,
						Line:     it.Line,
						Message:  msg,
					})
				}
			}
		})
	}

	// Sections no %EXEC_SQL can ever run.
	if !dynamicExec {
		for _, s := range e.m.SQLSections() {
			name := s.SectName
			if name == "" {
				if !unnamedExec {
					p.report(Diagnostic{
						Analyzer: "sections",
						Severity: SevWarn,
						Line:     s.Line,
						Message:  "unnamed SQL section is never executed: no unnamed %EXEC_SQL in the HTML report section",
					})
				}
			} else if byName[name] == s && !targeted[name] {
				p.report(Diagnostic{
					Analyzer: "sections",
					Severity: SevWarn,
					Line:     s.Line,
					Message:  fmt.Sprintf("SQL section %q is never executed: no %%EXEC_SQL(%s) in the HTML report section", name, name),
				})
			}
		}
	}

	// The engine reads DATABASE to connect before running any SQL.
	if len(e.m.SQLSections()) > 0 && !e.defined("DATABASE") && !e.inputs["DATABASE"] {
		p.report(Diagnostic{
			Analyzer: "sections",
			Severity: SevWarn,
			Message:  "macro has SQL sections but never defines DATABASE; execution fails unless the request supplies it",
			Fix:      `add DATABASE = "..." to a %DEFINE section`,
		})
	}
}
