package macrolint

import (
	"errors"
	"fmt"
	"strings"

	"db2www/internal/core"
	"db2www/internal/sqldb"
)

// selectShape extracts the checkable shape of a SELECT list: the number
// of projected columns and the names a report can reference via
// $(V.name). Ok is false when the list cannot be pinned down (SELECT *,
// t.*, or a UNION whose arms could disagree is left to the executor).
func selectShape(stmt sqldb.Stmt) (count int, names map[string]bool, ok bool) {
	sel, isSel := stmt.(*sqldb.SelectStmt)
	if !isSel || sel.Star || len(sel.Unions) > 0 {
		return 0, nil, false
	}
	names = map[string]bool{}
	for _, item := range sel.Items {
		if item.TableStar != "" {
			return 0, nil, false
		}
		switch {
		case item.Alias != "":
			names[strings.ToLower(item.Alias)] = true
		default:
			if cr, isCol := item.Expr.(*sqldb.ColumnRef); isCol {
				names[strings.ToLower(cr.Column)] = true
			}
			// An unaliased expression still occupies a position, so the
			// count check stays valid; it just has no referenceable name.
		}
	}
	return len(sel.Items), names, true
}

// runSQLReport validates what can be proven about a SQL section without
// running it: when the command resolves statically it must parse, and
// when the SELECT list is known, every $(Vi)/$(V.col) reference in the
// report and message blocks must address a real column.
func runSQLReport(p *pass) {
	e := p.env
	for _, t := range e.templates {
		if t.kind != tplSQL || t.sec == nil {
			continue
		}
		sk := p.skeletonOf(t)
		if !sk.fullyStatic {
			continue // request-dependent SQL; nothing provable here
		}
		stmt, err := sqldb.Parse(sk.Skeleton)
		if err != nil {
			// The parser records the byte offset of the token it
			// stopped at; map it back through the substitution segments
			// to the exact macro source position.
			off := 0
			var se *sqldb.Error
			if errors.As(err, &se) && se.Off > 0 {
				off = sk.Src(se.Off - 1)
			}
			p.reportAt(t, off, Diagnostic{
				Analyzer: "sqlreport",
				Severity: SevWarn,
				Message:  fmt.Sprintf("SQL command of %s does not parse: %v", t.where, err),
			})
			continue
		}
		count, names, ok := selectShape(stmt)
		if !ok {
			continue
		}
		secName := t.owner
		if secName == "" {
			secName = "(unnamed)"
		}
		for _, rt := range e.templates {
			if rt.sec != t.sec || (rt.kind != tplReport && rt.kind != tplMessage) {
				continue
			}
			for _, r := range rt.refs {
				if r.Dynamic {
					continue
				}
				idx, col, isCol := core.ReportColumn(r.Name)
				if !isCol {
					continue
				}
				switch {
				case idx == 0 && !names[strings.ToLower(col)]:
					p.reportAt(rt, r.Offset, Diagnostic{
						Analyzer: "sqlreport",
						Severity: SevWarn,
						Message: fmt.Sprintf("$(%s) names column %q, which the SELECT list of section %s does not produce",
							r.Name, col, secName),
						Fix: "use a column from the SELECT list, or alias one to this name",
					})
				case idx > count:
					p.reportAt(rt, r.Offset, Diagnostic{
						Analyzer: "sqlreport",
						Severity: SevWarn,
						Message: fmt.Sprintf("$(%s) addresses column %d, but the SELECT list of section %s has only %d column(s)",
							r.Name, idx, secName, count),
					})
				}
			}
		}
	}
}
