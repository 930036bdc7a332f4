package sqlsema

import (
	"fmt"
	"strings"

	"db2www/internal/sqldb"
)

// The performance lints read the plan Check built (sqldb.PlanSummary): a
// scan the planner left sequential although a filter names only its
// table, and a join step that multiplies its inputs with no condition.
// What is decided here is only what a macro adds to the plan — a LIKE
// literal that is partly a substitution slot, a SELECT * that feeds a
// report — and how to say it: the message, the row estimate and the
// CREATE INDEX hint.

// perf adds the performance findings of st, which Check planned as sum
// (nil when it could not plan it).
func (a *analyzer) perf(st sqldb.Stmt, sum *sqldb.PlanSummary) {
	if x, ok := st.(*sqldb.ExplainStmt); ok {
		st = x.Target
	}
	if sel, ok := st.(*sqldb.SelectStmt); ok && a.opts.Reported && selectsStar(sel) {
		a.add(RulePerf, SevInfo, -1,
			"SELECT * feeds a report template: the template silently depends on column order and every column is shipped",
			"project only the columns the report references")
	}
	if sum == nil {
		return
	}
	for i := range sum.Scans {
		a.seqScan(&sum.Scans[i])
	}
	for _, p := range sum.Products {
		rows := ""
		if p.Rows > 0 {
			rows = fmt.Sprintf(" (~%d rows examined)", p.Rows)
		}
		msg := fmt.Sprintf("no join predicate connects %q to the rest of the FROM clause; the join is a cross product%s", p.Name, rows)
		fix := "add a join condition or make the cartesian product explicit with CROSS JOIN"
		if p.Pinned {
			msg = fmt.Sprintf("%q joins the rest of the FROM clause as a cross product: a LEFT JOIN pins the plan, so the WHERE clause filters only after the product%s", p.Name, rows)
			fix = "join it with JOIN ... ON instead of a comma"
		}
		a.add(RulePerf, SevWarn, p.Off, msg, fix)
	}
}

func selectsStar(sel *sqldb.SelectStmt) bool {
	star := sel.Star || len(sel.Items) == 0
	for _, it := range sel.Items {
		star = star || it.TableStar != ""
	}
	return star
}

// seqScan warns about a scan the planner left sequential although a filter
// names only its table, unless a conjunct's key does not convert to its
// column (the statement fails: a sqltype finding) or a partly dynamic LIKE
// pattern may still have a literal prefix when the request fills it in.
func (a *analyzer) seqScan(s *sqldb.ScanSummary) {
	if s.Index != "" || len(s.Conds) == 0 {
		return
	}
	rows := ""
	if s.EstRows > 0 {
		rows = fmt.Sprintf(" of ~%d rows", s.EstRows)
	}
	msg, fix := fmt.Sprintf("no predicate on %q can use an index", s.Table), ""
	var wild []Finding
	for _, c := range s.Conds {
		pattern := c.Pattern
		if like, ok := c.Expr.(*sqldb.LikeExpr); ok && (c.Why == sqldb.VerdictNoIndex || c.Why == sqldb.VerdictNoPrefix) {
			if known, opaque := a.opts.OpaqueLits[sqldb.ExprOff(like.Pattern)]; opaque {
				if !leadingWildcard(known) {
					return
				}
				pattern = known
			}
		}
		switch {
		case c.Why == sqldb.VerdictKeyType:
			return
		case c.Why == sqldb.VerdictPinned:
			msg = fmt.Sprintf("no predicate on %q can use an index: a LEFT JOIN pins the plan to the written join order, so none is pushed to its scan", s.Table)
		case c.Why == sqldb.VerdictNoIndex && fix == "":
			fix = fmt.Sprintf("CREATE INDEX %s_%s_idx ON %s(%s)",
				strings.ToLower(s.Table), strings.ToLower(c.Column), s.Table, c.Column)
		case c.Why == sqldb.VerdictNoPrefix && c.Index != "" && leadingWildcard(pattern):
			wild = append(wild, Finding{Rule: RulePerf, Sev: SevWarn, Off: sqldb.ExprOff(c.Expr.(*sqldb.LikeExpr).Pattern),
				Msg: fmt.Sprintf("leading-wildcard LIKE pattern %q cannot use index %q on %s.%s; the planner falls back to a sequential scan%s",
					pattern, c.Index, s.Table, c.Column, rows)})
		}
	}
	if len(wild) > 0 {
		a.finds = append(a.finds, wild...)
		return
	}
	a.add(RulePerf, SevWarn, sqldb.ExprOff(s.Conds[0].Expr), msg+"; the planner falls back to a sequential scan"+rows, fix)
}

func leadingWildcard(pattern string) bool {
	return pattern != "" && (pattern[0] == '%' || pattern[0] == '_')
}
