package macrolint

import (
	"cmp"
	"errors"
	"fmt"
	"strings"

	"db2www/internal/core"
	"db2www/internal/sqldb"
)

// selectShape extracts the checkable shape of a SELECT list: the number
// of projected columns and the names a report can reference via
// $(V.name). Ok is false when the list cannot be pinned down (SELECT * or
// t.* is left to the executor).
func selectShape(stmt sqldb.Stmt) (count int, names map[string]bool, ok bool) {
	sel, isSel := stmt.(*sqldb.SelectStmt)
	if !isSel || sel.Star {
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
// running it: when the command resolves statically it must parse — one
// that does not (a syntax error, or SQL the engine refuses with 0A000)
// fails every request that runs it, an error — it should not be
// transaction control, which the gateway's -txn mode owns (txnControl),
// and when the SELECT list is known, every $(Vi)/$(V.col) reference in
// the report and message blocks must address a real column.
func runSQLReport(p *pass) {
	e := p.env
	for _, t := range e.templates {
		if t.Kind != core.ValSQL {
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
				Severity: SevError,
				Message:  fmt.Sprintf("SQL command of %s does not parse: %v", t.where(), err),
			})
			continue
		}
		if cmd := txnControl(stmt); cmd != "" {
			lead := len(sk.Skeleton) - len(strings.TrimLeft(sk.Skeleton, " \t\r\n"))
			p.reportAt(t, sk.Src(lead), Diagnostic{
				Analyzer: "sqlreport",
				Severity: SevWarn,
				Message: fmt.Sprintf("SQL command of %s is transaction control (%s): under gatewayd -txn single every request "+
					"that runs it fails with SQLSTATE 25000, and under -txn auto the statements of the transaction "+
					"it opens or ends bypass the query cache until it ends", t.where(), cmd),
				Fix: "leave transactions to the gateway's -txn mode",
			})
			continue
		}
		count, names, ok := selectShape(stmt)
		if !ok {
			continue
		}
		secName := cmp.Or(t.sql().SectName, "(unnamed)")
		for _, rt := range e.templates {
			if rt.Section != t.Section || rt.Kind == core.ValSQL {
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

// txnControl names the transaction-control command stmt is, or is "".
// Under -txn single the request's transaction is open before the first
// command, so a BEGIN finds one and a COMMIT or ROLLBACK leaves none for
// the gateway to end: both are 25000. Under -txn auto a BEGIN opens one
// the session then carries, and the query cache is bypassed while it is
// open.
func txnControl(stmt sqldb.Stmt) string {
	switch stmt.(type) {
	case *sqldb.BeginStmt:
		return "BEGIN"
	case *sqldb.CommitStmt:
		return "COMMIT"
	case *sqldb.RollbackStmt:
		return "ROLLBACK"
	}
	return ""
}
