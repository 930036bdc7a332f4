package sqldb

import "strings"

// stmtFacts classifies one parsed statement for result caching. It
// returns the lower-cased base tables the statement reads (sorted,
// deduplicated) and whether the statement is cacheable at all: a
// statement is cacheable only when it is a SELECT (possibly a UNION
// chain) whose result depends on nothing but table contents and the
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
	if !collectSelect(sel, seen) {
		return nil, false
	}
	tables = make([]string, 0, len(seen))
	for t := range seen {
		tables = append(tables, t)
	}
	sortStrings(tables)
	return tables, true
}

// collectSelect records every base table sel reads into seen — FROM
// items, JOIN targets, derived tables, UNION arms, and subqueries in any
// expression position — and reports whether the query is deterministic.
func collectSelect(sel *SelectStmt, seen map[string]bool) bool {
	det := true
	for _, tr := range sel.From {
		if tr.Sub != nil {
			det = collectSelect(tr.Sub, seen) && det
		} else if tr.Table != "" {
			seen[strings.ToLower(tr.Table)] = true
		}
		for _, j := range tr.Joins {
			if j.Sub != nil {
				det = collectSelect(j.Sub, seen) && det
			} else if j.Table != "" {
				seen[strings.ToLower(j.Table)] = true
			}
			det = collectExpr(j.On, seen) && det
		}
	}
	exprs := []Expr{sel.Where, sel.Having, sel.Limit, sel.Offset}
	for _, it := range sel.Items {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, sel.GroupBy...)
	for _, oi := range sel.OrderBy {
		exprs = append(exprs, oi.Expr)
	}
	for _, e := range exprs {
		det = collectExpr(e, seen) && det
	}
	for _, u := range sel.Unions {
		det = collectSelect(u.Sel, seen) && det
	}
	return det
}

// collectExpr walks one expression tree for subqueries and
// non-deterministic function calls.
func collectExpr(e Expr, seen map[string]bool) bool {
	det := true
	walkExpr(e, func(x Expr) bool {
		switch n := x.(type) {
		case *FuncCall:
			switch n.Name {
			case "NOW", "CURRENT_TIMESTAMP", "CURDATE", "CURRENT_DATE", "CURTIME", "CURRENT_TIME":
				det = false
			}
		case *Subquery:
			// walkExpr treats subqueries as closed scopes; descend
			// explicitly so their tables are recorded too.
			det = collectSelect(n.Sel, seen) && det
		}
		return true
	})
	return det
}
