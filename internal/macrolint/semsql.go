package macrolint

import (
	"strconv"
	"strings"

	"db2www/internal/core"
	"db2www/internal/sqldb"
	"db2www/internal/sqlsema"
)

// This file bridges macro templates to the schema-aware semantic
// analyzer (internal/sqlsema). A %SQL command template is turned into a
// parseable SQL skeleton: statically resolvable $(VAR) references are
// inlined, request-dependent references outside string literals become ?
// parameters carrying an inferred value class, and references inside
// string literals mark the literal opaque (its known prefix is kept, so
// facts like a LIKE pattern's leading wildcard survive). A segment map
// carries every skeleton offset back to the macro source, so semantic
// findings land on exact file:line:col positions.

// seg maps one skeleton span back to the source template. A literal span
// maps byte-for-byte; a substituted span maps wholesale to the `$(` (or
// the resolved value's reference site).
type seg struct {
	out     int // skeleton start offset
	src     int // template source start offset
	literal bool
}

// substSQL is the substitution result for one SQL command template.
type substSQL struct {
	sql         string
	slots       []sqlsema.Slot
	opaque      map[int]string // skeleton offset of opening quote → known prefix
	segs        []seg
	fullyStatic bool // no slots, no opaque literals: resolveStatic-equivalent
	ok          bool
}

// srcOff maps a skeleton byte offset back to the template source.
func (s *substSQL) srcOff(out int) int {
	if out < 0 || len(s.segs) == 0 {
		return 0
	}
	cur := s.segs[0]
	end := len(s.sql)
	for i, sg := range s.segs {
		if sg.out > out {
			end = sg.out
			break
		}
		cur = sg
		if i == len(s.segs)-1 {
			end = len(s.sql)
		}
	}
	if !cur.literal {
		return cur.src
	}
	d := out - cur.out
	if max := end - cur.out; d > max {
		d = max
	}
	return cur.src + d
}

// quoteScan is a single-quote state machine over emitted skeleton text,
// with ” escape handling. It records where the current string literal
// opened and its content so far, for opaque-literal bookkeeping.
type quoteScan struct {
	in      bool
	pending bool // inside a string, saw a quote; '' = escape, else close
	openOut int  // skeleton offset of the opening quote
	buf     strings.Builder
}

func (q *quoteScan) feed(ch byte, outOff int) {
	if q.pending {
		q.pending = false
		if ch == '\'' {
			q.buf.WriteByte('\'')
			return
		}
		q.in = false
	}
	if q.in {
		if ch == '\'' {
			q.pending = true
		} else {
			q.buf.WriteByte(ch)
		}
		return
	}
	if ch == '\'' {
		q.in = true
		q.openOut = outOff
		q.buf.Reset()
	}
}

// settle resolves a pending quote at a substitution boundary: the
// runtime substitutes text first and lexes second, so a quote directly
// before $(VAR) closes the string.
func (q *quoteScan) settle() {
	if q.pending {
		q.pending = false
		q.in = false
	}
}

// substitute builds (and memoizes) the SQL skeleton for one tplSQL
// template. ok=false means the template is not analyzable: dynamic
// $(...$(...)...) references, unterminated references, or a source `?`
// colliding with generated parameter slots.
func (p *pass) substitute(t *tpl) *substSQL {
	if p.subst == nil {
		p.subst = map[*tpl]*substSQL{}
	}
	if s, done := p.subst[t]; done {
		return s
	}
	s := p.buildSubst(t)
	p.subst[t] = s
	return s
}

func (p *pass) buildSubst(t *tpl) *substSQL {
	e := p.env
	s := &substSQL{opaque: map[int]string{}}
	refs, unterminated := core.ParseTemplate(t.text)
	if len(unterminated) > 0 {
		return s
	}
	var b strings.Builder
	var q quoteScan
	sawQuestion := false
	allStatic := true

	emit := func(src int, text string, literal bool) {
		if text == "" {
			return
		}
		s.segs = append(s.segs, seg{out: b.Len(), src: src, literal: literal})
		for i := 0; i < len(text); i++ {
			if text[i] == '?' && !q.in && !q.pending {
				sawQuestion = sawQuestion || literal
			}
			q.feed(text[i], b.Len()+i)
		}
		b.WriteString(text)
	}

	last := 0
	for _, r := range refs {
		if r.Offset < last {
			continue // nested ref inside a dynamic outer one
		}
		if r.Dynamic {
			return s
		}
		emit(last, t.text[last:r.Offset], true)
		last = r.End

		if r.Prefix == "" {
			if val, static := resolveStaticVar(e, r.Name, map[string]bool{}); static {
				emit(r.Offset, val, false)
				continue
			}
		}
		allStatic = false
		q.settle()
		if q.in {
			// Dynamic content inside a string literal: the literal's
			// value is unknowable past this point. Record the prefix
			// known so far, once per literal.
			if _, done := s.opaque[q.openOut]; !done {
				s.opaque[q.openOut] = q.buf.String()
			}
			continue
		}
		// Transform prefixes (@sq, @url, @html) preserve the value's
		// textual content, so the inferred class stands for them too.
		class, sample, chain := p.varClassOf(r.Name, map[string]bool{})
		s.slots = append(s.slots, sqlsema.Slot{Name: r.Name, Class: class, Sample: sample, Chain: chain})
		emit(r.Offset, "?", false)
	}
	emit(last, t.text[last:], true)

	if sawQuestion && len(s.slots) > 0 {
		return s // source ? + generated slots: parameter numbering is off
	}
	s.sql = b.String()
	s.ok = true
	s.fullyStatic = allStatic && !strings.Contains(s.sql, "$$(")
	return s
}

// --- macro-variable value classes ---

type classInfo struct {
	class  sqlsema.VarClass
	sample string
	chain  string
}

// varClassOf infers the value class of one macro variable by dataflow
// over its %DEFINE history: which values can it hold when the SQL
// section executes? Form inputs are request-controlled (ClassInput);
// statically resolvable definitions classify by whether every reachable
// value parses as a number. The inference is deliberately conservative —
// anything request- or environment-dependent degrades to ClassUnknown or
// ClassInput, which the type checker treats as unfalsifiable.
func (p *pass) varClassOf(name string, visiting map[string]bool) (sqlsema.VarClass, string, string) {
	if p.varClass == nil {
		p.varClass = map[string]classInfo{}
	}
	if ci, done := p.varClass[name]; done {
		return ci.class, ci.sample, ci.chain
	}
	ci := p.computeVarClass(name, visiting)
	if len(visiting) == 0 {
		// Memoize only cycle-free results: a class computed mid-cycle
		// depends on the visiting set.
		p.varClass[name] = ci
	}
	return ci.class, ci.sample, ci.chain
}

func (p *pass) computeVarClass(name string, visiting map[string]bool) classInfo {
	e := p.env
	if e.inputs[name] {
		return classInfo{class: sqlsema.ClassInput, chain: "a form input"}
	}
	if core.IsSystemVariable(name) || visiting[name] {
		return classInfo{class: sqlsema.ClassUnknown}
	}
	v, ok := e.vars[name]
	if !ok {
		// Undefined references substitute the null string, or whatever
		// the request supplies: request-controlled for our purposes.
		return classInfo{class: sqlsema.ClassInput, chain: "not defined in the macro"}
	}
	if v.exec || v.list {
		return classInfo{class: sqlsema.ClassUnknown}
	}
	visiting[name] = true
	defer delete(visiting, name)

	var sawNum, sawText, sawInput, sawUnknown bool
	var sample, chain string
	note := func(ci classInfo) {
		switch ci.class {
		case sqlsema.ClassNumber:
			sawNum = true
		case sqlsema.ClassText:
			sawText = true
		case sqlsema.ClassMaybeText:
			sawText = true
			sawUnknown = true
		case sqlsema.ClassInput:
			sawInput = true
		default:
			sawUnknown = true
		}
		if ci.class == sqlsema.ClassText || ci.class == sqlsema.ClassMaybeText {
			if sample == "" {
				sample, chain = ci.sample, ci.chain
			}
		}
	}
	arm := func(tmpl string, line int) {
		if val, static := resolveStatic(e, tmpl, visiting); static {
			if sqlsema.Numeric(val) {
				sawNum = true
			} else {
				sawText = true
				if sample == "" {
					sample = val
					chain = "%DEFINE at line " + strconv.Itoa(line)
				}
			}
			return
		}
		// A definition that is exactly one reference forwards the
		// referenced variable's class.
		refs, unterm := core.ParseTemplate(tmpl)
		if len(unterm) == 0 && len(refs) == 1 && !refs[0].Dynamic && refs[0].Prefix == "" &&
			strings.TrimSpace(tmpl[:refs[0].Offset]) == "" && strings.TrimSpace(tmpl[refs[0].End:]) == "" {
			cls, smp, chn := p.varClassOf(refs[0].Name, visiting)
			ci := classInfo{class: cls, sample: smp, chain: chn}
			if ci.chain != "" {
				ci.chain = "via $(" + refs[0].Name + "), " + ci.chain
			} else {
				ci.chain = "via $(" + refs[0].Name + ")"
			}
			note(ci)
			return
		}
		sawUnknown = true
	}

	for _, st := range v.effective() {
		switch st.Kind {
		case core.DefSimple:
			arm(st.Value, st.Line)
		case core.DefCondTest:
			arm(st.Value, st.Line)
			if st.HasElse {
				arm(st.Value2, st.Line)
			} else {
				sawUnknown = true // missing else arm yields the null string
			}
		default:
			// DefCondSelf lets the request override the default value.
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
	default:
		class = sqlsema.ClassUnknown
	}
	return classInfo{class: class, sample: sample, chain: chain}
}

// --- the shared semantic pass ---

// semantic runs schema-aware analysis once per macro and caches the
// resulting diagnostics; the schema, sqltype, and sqlperf analyzers
// each surface their own rule's findings from the shared result.
func (p *pass) semantic() []Diagnostic {
	if p.semaDone {
		return p.semaDiags
	}
	p.semaDone = true
	if p.l.Schema == nil {
		return nil
	}
	for _, t := range p.env.templates {
		if t.kind != tplSQL || t.sec == nil {
			continue
		}
		sub := p.substitute(t)
		if !sub.ok {
			continue
		}
		stmt, err := sqldb.Parse(sub.sql)
		if err != nil {
			continue // sqlreport owns parse findings
		}
		opts := sqlsema.Options{
			Slots:      sub.slots,
			Reported:   t.sec.Report != nil,
			OpaqueLits: sub.opaque,
		}
		for _, f := range sqlsema.Analyze(stmt, p.l.Schema, opts) {
			d := Diagnostic{
				Analyzer: f.Rule,
				Severity: semaSeverity(f.Sev),
				Message:  f.Msg,
				Fix:      f.Fix,
				File:     p.env.file,
			}
			off := 0
			if f.Off >= 0 {
				off = sub.srcOff(f.Off)
			}
			d.Line, d.Col = t.pos(off)
			p.semaDiags = append(p.semaDiags, d)
		}
	}
	return p.semaDiags
}

func semaSeverity(s sqlsema.Severity) Severity {
	switch s {
	case sqlsema.SevError:
		return SevError
	case sqlsema.SevWarn:
		return SevWarn
	}
	return SevInfo
}

func (p *pass) semaRule(rule string) {
	for _, d := range p.semantic() {
		if d.Analyzer == rule {
			p.report(d)
		}
	}
}

func runSchema(p *pass)  { p.semaRule(sqlsema.RuleSchema) }
func runSqltype(p *pass) { p.semaRule(sqlsema.RuleType) }
func runSqlperf(p *pass) { p.semaRule(sqlsema.RulePerf) }
