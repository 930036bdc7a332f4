package sqldb

import "strings"

// stmtFacts classifies one parsed statement for result caching. It
// returns the lower-cased base tables the statement reads (sorted,
// deduplicated) and whether the statement is cacheable at all: a SELECT
// is, for its result depends on nothing but table contents and the
// statement text; any other statement is not. Literals play no part in
// it, so the answer holds for every statement of the shape;
// Database.StatementFacts keeps it with the shape's parse.
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
	tables = make([]string, 0, len(seen))
	for t := range seen {
		tables = append(tables, t)
	}
	sortStrings(tables)
	return tables, true
}
