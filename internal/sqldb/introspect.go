package sqldb

import "strings"

// stmtFacts classifies one parsed statement for result caching. It
// returns the lower-cased base tables the statement reads (sorted,
// deduplicated) and whether the statement is cacheable at all: a
// statement is cacheable only when it is a SELECT whose result depends on nothing but table contents and the
// statement text. Any non-SELECT statement, or a call to a clock-dependent
// function (NOW, CURDATE, CURTIME and their SQL-92 spellings), makes it
// uncacheable. Literals play no part in it, so the answer holds for every
// statement of the shape; Database.StatementFacts keeps it with the
// shape's parse.
func stmtFacts(st Stmt) (tables []string, cacheable bool) {
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, false
	}
	seen := map[string]bool{}
	for _, tr := range sel.From {
		seen[strings.ToLower(tr.Table)] = true
		for _, j := range tr.Joins {
			seen[strings.ToLower(j.Table)] = true
		}
	}
	if !deterministic(sel) {
		return nil, false
	}
	tables = make([]string, 0, len(seen))
	for t := range seen {
		tables = append(tables, t)
	}
	sortStrings(tables)
	return tables, true
}

// deterministic reports whether sel calls no clock-dependent function.
func deterministic(sel *SelectStmt) bool {
	exprs := append([]Expr{sel.Where}, sel.GroupBy...)
	for _, it := range sel.Items {
		exprs = append(exprs, it.Expr)
	}
	for _, tr := range sel.From {
		for _, j := range tr.Joins {
			exprs = append(exprs, j.On)
		}
	}
	for _, oi := range sel.OrderBy {
		exprs = append(exprs, oi.Expr)
	}
	det := true
	for _, e := range exprs {
		walkExpr(e, func(x Expr) bool {
			if fc, ok := x.(*FuncCall); ok {
				switch fc.Name {
				case "NOW", "CURRENT_TIMESTAMP", "CURDATE", "CURRENT_DATE", "CURTIME", "CURRENT_TIME":
					det = false
				}
			}
			return det
		})
	}
	return det
}
