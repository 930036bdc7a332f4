package macrolint

import (
	"strings"

	"db2www/internal/core"
	"db2www/internal/sqldb"
	"db2www/internal/sqlsema"
)

// This file bridges macro templates to the schema-aware semantic
// analyzer (internal/sqlsema). The engine expands a %SQL command under an
// empty request and records its shape (core.Static.Shape): the statically
// resolvable references inlined, and each hole — a reference the request
// reaches — a ? outside a string literal or left out inside one. The linter
// types each ? with the hole's inferred value class and marks each literal
// with a hole opaque (its known prefix is kept, so facts like a LIKE
// pattern's leading wildcard survive). The shape's segments carry every
// skeleton offset back to the macro source, so semantic findings land on
// exact file:line:col positions.

// skeleton is one SQL command template's shape, as the analyzers read it.
type skeleton struct {
	*core.Shape
	opts        sqlsema.Options // the holes' slots and opaque literals
	fullyStatic bool            // no hole and no escape left: the statement that runs
	ok          bool
}

// skeletonOf returns (and memoizes) the skeleton of one tplSQL template.
// ok=false means the template is not analyzable: an unterminated reference,
// a hole of the dynamic $(...$(...)...) form, or a source ? colliding with
// the holes' parameter slots.
func (p *pass) skeletonOf(t *tpl) *skeleton {
	if t.skel != nil {
		return t.skel
	}
	s := &skeleton{Shape: p.env.static.Shape(t.sec), opts: sqlsema.Options{OpaqueLits: map[int]string{}}}
	t.skel = s
	for _, g := range s.Segs {
		switch {
		case !g.Hole:
		case g.Name == "":
			return s
		case g.InLit:
			if _, done := s.opts.OpaqueLits[g.Open]; !done {
				s.opts.OpaqueLits[g.Open] = g.Known
			}
		default:
			// Transform prefixes (@sq, @url, @html) preserve the value's
			// textual content, so the inferred class stands for them too.
			c := p.env.fact(g.Name).class
			s.opts.Slots = append(s.opts.Slots, sqlsema.Slot{Name: g.Name, Class: c.class, Sample: c.sample, Chain: c.chain})
		}
	}
	s.ok = len(t.unterminated) == 0 && (s.Params == 0 || len(s.opts.Slots) == 0)
	// A "$(" left in the statement is an escape's literal text.
	s.fullyStatic = s.ok && len(s.opts.Slots)+len(s.opts.OpaqueLits) == 0 && !strings.Contains(s.Text, "$(")
	return s
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
		sk := p.skeletonOf(t)
		if !sk.ok {
			continue
		}
		stmt, err := sqldb.Parse(sk.Skeleton)
		if err != nil {
			continue // sqlreport owns parse findings
		}
		opts := sk.opts
		opts.Reported = t.sec.Report != nil
		for _, f := range sqlsema.Analyze(stmt, p.l.Schema, opts) {
			d := Diagnostic{
				Analyzer: f.Rule,
				Severity: Severity(f.Sev), // both rank Info < Warn < Error from 0
				Message:  f.Msg,
				Fix:      f.Fix,
				File:     p.env.file,
			}
			off := 0
			if f.Off >= 0 {
				off = sk.Src(f.Off)
			}
			d.Line, d.Col = t.pos(off)
			p.semaDiags = append(p.semaDiags, d)
		}
	}
	return p.semaDiags
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
