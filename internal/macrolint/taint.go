package macrolint

import (
	"fmt"
	"strings"

	"db2www/internal/core"
)

// Taint levels. Direct means the value is attacker-controlled at the
// reference itself: a form input, or a name no definition binds (the
// request URL can supply any such variable). Indirect means attacker
// data arrives through a chain of lazy %DEFINE expansions — one step
// removed, and in idiomatic macros (the paper's Appendix A builds WHERE
// clauses exactly this way) often deliberate, so it warns rather than
// errors.
type taintLevel int

const (
	taintNone taintLevel = iota
	taintIndirect
	taintDirect
)

// taintInfo records how attacker-controlled data reaches a variable.
type taintInfo struct {
	level  taintLevel
	chain  []string // dereference chain, variable to origin
	origin string   // human-readable description of the source
}

// runTaint flags attacker-controlled data flowing into the injection
// sink, the %SQL command template. The $(@sq:name) transform
// (single-quote doubling) is the sanctioned sanitizer and stops the flow;
// @html: and @url: do not help SQL and are ignored.
func runTaint(p *pass) {
	e := p.env
	for _, t := range e.templates {
		if t.Kind != core.ValSQL {
			continue
		}
		for _, r := range t.refs {
			if r.Dynamic || r.Prefix == "@sq:" {
				continue
			}
			ti := &e.fact(r.Name).taint
			if ti.level == taintNone {
				continue
			}
			d := Diagnostic{Analyzer: "taint"}
			sink := "the SQL command of " + t.where()
			switch ti.level {
			case taintDirect:
				d.Severity = SevError
				d.Message = fmt.Sprintf("%s is interpolated into %s without $(@sq:) quoting — SQL injection",
					ti.origin, sink)
				d.Fix = fmt.Sprintf("replace $(%s) with $(@sq:%s)", r.Raw, r.Name)
				// The hole the reference is, or is nested in.
				inLit := false
				for _, g := range p.skeletonOf(t).Segs {
					if g.Src <= r.Offset {
						inLit = g.InLit
					}
				}
				if inLit {
					// Inside a quoted literal the value lands in a bind
					// parameter, not in statement structure (the plan
					// cache extracts quoted literals); the residual risk
					// is quote breakout, which $(@sq:) closes.
					d.Severity = SevWarn
					d.Message = fmt.Sprintf("%s is interpolated into a string literal of %s without $(@sq:) quoting",
						ti.origin, sink)
				}
			case taintIndirect:
				d.Severity = SevWarn
				d.Message = fmt.Sprintf("%s reaches %s through the definition chain %s; the interpolation is unquoted",
					ti.origin, sink, strings.Join(ti.chain, " <- "))
				d.Fix = fmt.Sprintf("quote the input where it enters the chain: $(@sq:%s)", ti.chain[len(ti.chain)-1])
			}
			d.Line, d.Col = t.pos(r.Offset)
			p.report(d)
		}
	}
}
