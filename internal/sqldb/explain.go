package sqldb

// EXPLAIN [ANALYZE] rendering. The plan is the executor's own (planner.go:
// what planStmt built is what ran); this file only prints it. Under
// ANALYZE each node carries the counters the executor left on it, so
// which counter belongs to which line is a matter of which node is being
// printed — nothing here decides anything about how a statement runs.

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// planPrinter flattens a plan into QUERY PLAN lines. analyze adds each
// node's observed counters.
type planPrinter struct {
	lines   []string
	analyze bool
}

// renderPlan renders root, with its counters when the plan was executed.
func renderPlan(root stmtPlan, analyze bool) []string {
	pp := &planPrinter{analyze: analyze}
	root.explain(pp)
	return pp.lines
}

// node prints one operator line under pad and returns the padding of its
// annotation lines and children. The statement's root has no arrow.
func (pp *planPrinter) node(pad string, root bool, text string) string {
	if root {
		pp.lines = append(pp.lines, pad+text)
		return pad + "  "
	}
	pp.lines = append(pp.lines, pad+"-> "+text)
	return pad + "   "
}

// prop prints one annotation line ("Filter: ...") under a node.
func (pp *planPrinter) prop(pad, text string) {
	pp.lines = append(pp.lines, pad+text)
}

// scanned renders a scan's or join's counters: rows examined against
// rows returned. A node the execution never reached says so.
func (pp *planPrinter) scanned(o *opStats) string {
	if !pp.analyze {
		return ""
	}
	return o.annotation(fmt.Sprintf("examined=%d returned=%d", o.examined, o.returned))
}

// produced renders a SELECT's or a DML statement's rows and time.
func (pp *planPrinter) produced(o *opStats) string {
	if !pp.analyze {
		return ""
	}
	return o.annotation(fmt.Sprintf("rows=%d", o.returned))
}

func (o *opStats) annotation(counts string) string {
	if o.calls == 0 {
		return " (never executed)"
	}
	s := " (" + counts + " time=" + (time.Duration(o.micros) * time.Microsecond).String()
	if o.calls > 1 {
		s += fmt.Sprintf(" loops=%d", o.calls)
	}
	return s + ")"
}

// staged renders a pipeline stage's in/out row counts. Unlike a node, a
// stage that never ran renders nothing: stage lines are structural
// first, counters second.
func (pp *planPrinter) staged(st *stageStats) string {
	if !pp.analyze || st.calls == 0 {
		return ""
	}
	s := fmt.Sprintf(" (in=%d out=%d", st.in, st.out)
	if st.calls > 1 {
		s += fmt.Sprintf(" loops=%d", st.calls)
	}
	return s + ")"
}

func (sp *selectPlan) explain(pp *planPrinter) { pp.selectPlan(sp, "", true) }

// selectPlan prints a SELECT.
func (pp *planPrinter) selectPlan(sp *selectPlan, pad string, root bool) {
	in := pp.node(pad, root, "Select"+pp.produced(&sp.stat))
	// Conjuncts the planner pushed into scans and join steps show there;
	// only the residual is evaluated above the FROM tree.
	if sp.residual != nil {
		pp.prop(in, "Filter: "+exprString(sp.residual)+pp.staged(&sp.where))
	}
	if len(sp.groupKeys) > 0 {
		pp.prop(in, "Group By: "+exprListString(sp.groupKeys))
	}
	if sp.grouped {
		pp.prop(in, "Aggregate"+pp.staged(&sp.aggregate))
	}
	if len(sp.orderBy) > 0 {
		pp.prop(in, "Order By: "+orderByString(sp.orderBy))
	}
	if sp.from == nil {
		pp.node(in, false, "Result")
	} else {
		pp.fromNode(sp.from.root, sp.from.free, in)
	}
}

// fromNode prints the FROM tree. A free plan shows the planner's
// estimates on every node; a pinned one has none to show.
func (pp *planPrinter) fromNode(n fromNode, free bool, pad string) {
	jp, ok := n.(*joinPlan)
	if !ok {
		pp.relPlan(n.(*relPlan), free, pad)
		return
	}
	method := "Nested Loop"
	if jp.hash != nil {
		method = "Hash"
	}
	label := method + " Join"
	switch jp.kind {
	case JoinCross:
		label = "Cross Join"
	case JoinLeft:
		label = method + " Left Join"
	}
	if !jp.comma { // the product of comma-listed entries has always printed bare
		label += pp.scanned(&jp.stat)
	}
	in := pp.node(pad, false, label)
	switch {
	case jp.hash != nil:
		pp.prop(in, "Hash Cond: "+exprString(jp.hash.conj))
		var rest []Expr
		for _, conj := range appendConjuncts(nil, jp.cond) {
			if conj != Expr(jp.hash.conj) {
				rest = append(rest, conj)
			}
		}
		if len(rest) > 0 {
			pp.prop(in, "Join Cond: "+exprString(andJoin(rest)))
		}
	case jp.cond != nil:
		pp.prop(in, "Join Cond: "+exprString(jp.cond))
	}
	if free {
		pp.prop(in, estText(jp.card, jp.cost))
	}
	pp.fromNode(jp.left, free, in)
	pp.fromNode(jp.right, free, in)
}

// relPlan prints one scan: the access path the planner chose, the
// conjuncts it pushed down to it, and its estimate.
func (pp *planPrinter) relPlan(rp *relPlan, free bool, pad string) {
	var label string
	switch {
	case rp.access != nil:
		label = "Index Scan on " + rp.display() + " using " + rp.access.ix.Name
	default:
		label = "Seq Scan on " + rp.display()
	}
	in := pp.node(pad, false, label+pp.scanned(&rp.stat))
	if rp.access != nil {
		pp.prop(in, "Index Cond: "+rp.condText(rp.access.conj))
	}
	if rp.filter != nil {
		text := exprString(rp.filter)
		if rp.nImplied > 0 {
			parts := make([]string, len(rp.conds))
			for i, c := range rp.conds {
				parts[i] = rp.condText(c)
			}
			text = strings.Join(parts, " AND ")
		}
		pp.prop(in, "Filter: "+text+pp.staged(&rp.pushStat))
	}
	if free {
		pp.prop(in, estText(rp.est, rp.baseRows))
	}
}

// condText renders a conjunct pushed to the scan, marked when implied
// equality derived it.
func (rp *relPlan) condText(c Expr) string {
	if slices.Contains(rp.conds[len(rp.conds)-rp.nImplied:], c) {
		return exprString(c) + " (implied)"
	}
	return exprString(c)
}

// display names a base table with its alias, when it has another one.
func (rp *relPlan) display() string {
	if rp.alias != "" && !strings.EqualFold(rp.alias, rp.t.Name) {
		return rp.t.Name + " as " + rp.alias
	}
	return rp.t.Name
}

func (dp *dmlPlan) explain(pp *planPrinter) {
	var in string
	switch x := dp.st.(type) {
	case *InsertStmt:
		in = pp.node("", true, "Insert on "+dp.t.Name+pp.produced(&dp.stat))
		pp.prop(in, fmt.Sprintf("Rows: %d", len(x.Rows)))
	case *UpdateStmt:
		in = pp.node("", true, "Update on "+dp.t.Name+pp.produced(&dp.stat))
		sets := make([]string, len(x.Set))
		for i, sc := range x.Set {
			sets[i] = sc.Column + " = " + exprString(sc.Value)
		}
		pp.prop(in, "Set: "+strings.Join(sets, ", "))
		pp.writeScan(dp, in)
	case *DeleteStmt:
		in = pp.node("", true, "Delete on "+dp.t.Name+pp.produced(&dp.stat))
		pp.writeScan(dp, in)
	}
}

// writeScan prints the WHERE filter and the scan under an UPDATE or
// DELETE.
func (pp *planPrinter) writeScan(dp *dmlPlan, pad string) {
	if dp.residual != nil {
		pp.prop(pad, "Filter: "+exprString(dp.residual)+pp.staged(&dp.filter))
	}
	pp.relPlan(dp.scan, false, pad)
}

// planResultText flattens an EXPLAIN result back into the newline-joined
// plan text the statement stats registry stores per digest.
func planResultText(res *Result) string {
	if res == nil {
		return ""
	}
	var sb strings.Builder
	for i, r := range res.Rows {
		if i > 0 {
			sb.WriteByte('\n')
		}
		if len(r) > 0 {
			sb.WriteString(r[0].String())
		}
	}
	return sb.String()
}

// --- expression deparsing ---

// exprString renders an expression for plan annotations. It is a
// display form, not guaranteed to re-parse.
func exprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Literal:
		return valueSQL(x.Val)
	case *ColumnRef:
		if x.Table != "" {
			return x.Table + "." + x.Column
		}
		return x.Column
	case *Param:
		return "?"
	case *Unary:
		if x.Op == "NOT" {
			return "NOT " + exprString(x.X)
		}
		return x.Op + exprString(x.X)
	case *Binary:
		return "(" + exprString(x.L) + " " + x.Op + " " + exprString(x.R) + ")"
	case *LikeExpr:
		s := exprString(x.X)
		if x.Not {
			s += " NOT"
		}
		return s + " LIKE " + exprString(x.Pattern)
	case *InExpr:
		s := exprString(x.X)
		if x.Not {
			s += " NOT"
		}
		items := make([]string, len(x.List))
		for i, it := range x.List {
			items[i] = exprString(it)
		}
		return s + " IN (" + strings.Join(items, ", ") + ")"
	case *IsNullExpr:
		if x.Not {
			return exprString(x.X) + " IS NOT NULL"
		}
		return exprString(x.X) + " IS NULL"
	case *FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = exprString(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	case *CaseExpr:
		var sb strings.Builder
		sb.WriteString("CASE")
		if x.Operand != nil {
			sb.WriteString(" " + exprString(x.Operand))
		}
		for _, w := range x.Whens {
			sb.WriteString(" WHEN " + exprString(w.Cond) + " THEN " + exprString(w.Then))
		}
		if x.Else != nil {
			sb.WriteString(" ELSE " + exprString(x.Else))
		}
		sb.WriteString(" END")
		return sb.String()
	default:
		return "?expr?"
	}
}

// valueSQL renders a literal the way it would appear in SQL text.
func valueSQL(v Value) string {
	switch v.T {
	case TNull:
		return "NULL"
	case TString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	default:
		return v.String()
	}
}

// exprListString joins expression renderings with commas.
func exprListString(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = exprString(e)
	}
	return strings.Join(parts, ", ")
}

// orderByString renders an ORDER BY list with sort directions.
func orderByString(items []OrderItem) string {
	parts := make([]string, len(items))
	for i, o := range items {
		parts[i] = exprString(o.Expr)
		if o.Desc {
			parts[i] += " DESC"
		} else {
			parts[i] += " ASC"
		}
	}
	return strings.Join(parts, ", ")
}
