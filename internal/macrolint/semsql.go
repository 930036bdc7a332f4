package macrolint

import (
	"strings"

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
	fullyStatic bool // every reference static (core.Static), no escape left
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

// quoteScan is the linter's one single-quote state machine, a doubled
// quote being an escaped one: buildSubst feeds it the skeleton it emits,
// the taint analyzer a template's text up to a reference. It records where
// the current string literal opened and its content so far, for
// opaque-literal bookkeeping, and counts the '?' it sees outside literals.
type quoteScan struct {
	in        bool
	pending   bool // inside a string, saw a quote; '' = escape, else close
	openOut   int  // skeleton offset of the opening quote
	buf       strings.Builder
	questions int
}

// feed scans text, whose first byte sits at skeleton offset outOff.
func (q *quoteScan) feed(text string, outOff int) {
	for i := 0; i < len(text); i++ {
		ch := text[i]
		if ch == '?' && !q.in && !q.pending {
			q.questions++
		}
		if q.pending {
			q.pending = false
			if ch == '\'' {
				q.buf.WriteByte('\'')
				continue
			}
			q.in = false
		}
		switch {
		case q.in && ch == '\'':
			q.pending = true
		case q.in:
			q.buf.WriteByte(ch)
		case ch == '\'':
			q.in = true
			q.openOut = outOff + i
			q.buf.Reset()
		}
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
	if len(t.unterminated) > 0 {
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
		n := q.questions
		q.feed(text, b.Len())
		sawQuestion = sawQuestion || literal && q.questions > n
		b.WriteString(text)
	}

	last := 0
	for _, r := range t.refs {
		if r.Offset < last {
			continue // nested ref inside a dynamic outer one
		}
		if r.Dynamic {
			return s
		}
		emit(last, t.text[last:r.Offset], true)
		last = r.End

		if r.Prefix == "" {
			if val, static := e.static.Lookup(r.Name); static {
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
		c := e.fact(r.Name).class
		s.slots = append(s.slots, sqlsema.Slot{Name: r.Name, Class: c.class, Sample: c.sample, Chain: c.chain})
		emit(r.Offset, "?", false)
	}
	emit(last, t.text[last:], true)

	if sawQuestion && len(s.slots) > 0 {
		return s // source ? + generated slots: parameter numbering is off
	}
	s.sql = b.String()
	s.ok = true
	// A "$(" left in the statement is an escape's literal text.
	s.fullyStatic = allStatic && !strings.Contains(s.sql, "$(")
	return s
}

// classInfo is a macro variable's value class, with a non-numeric value
// it can take and the definition chain it came by, for messages.
type classInfo struct {
	class  sqlsema.VarClass
	sample string
	chain  string
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
