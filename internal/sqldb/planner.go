package sqldb

import "time"

// The plan: one tree per statement execution, built by planStmt and its
// parts before anything runs, and the only thing the executor (exec.go,
// exec2.go), EXPLAIN (explain.go) and — through the shape classifier of
// static.go — the linter read. Every decision the engine makes about how
// to read a table is on a node here: which relations join in which order
// and by which method, which conjuncts filter at a scan, which index
// serves a scan. The executor follows the nodes and leaves its counters
// on them; EXPLAIN prints the nodes, and EXPLAIN ANALYZE the counters
// beside them.
//
// A plan is built per execution and never kept on the statement: the
// driver's prepared statements execute one parsed tree many times with
// other parameters, and the statistics the choices rest on move between
// executions. It holds resolved *Table and *Index pointers, so it is
// valid only under the catalog lock it was built under.

// opStats is what one operator did: how often it ran, the rows it
// considered (scan candidates, join pairs) and produced, and — only while
// EXPLAIN ANALYZE runs — the time it took.
type opStats struct {
	calls    int
	examined int
	returned int
	micros   int64
}

// done records one run of the operator. start is view.clock's value from
// before the run: zero outside EXPLAIN ANALYZE, so the clock is read only
// there.
func (o *opStats) done(start time.Time, examined, returned int) {
	o.calls++
	o.examined += examined
	o.returned += returned
	if !start.IsZero() {
		o.micros += time.Since(start).Microseconds()
	}
}

// stageStats is one pipeline stage's input and output row counts (WHERE,
// aggregate, DISTINCT, LIMIT, UNION dedupe, a pushed or DML filter).
type stageStats struct {
	calls   int
	in, out int
}

func (s *stageStats) note(in, out int) {
	s.calls++
	s.in += in
	s.out += out
}

// selectPlan is the plan of a SELECT. A single SELECT has from (nil
// without a FROM clause) and subs; the head of a UNION chain has arms
// instead — its own arm first, planned from a copy of the statement
// without the ORDER BY/LIMIT/OFFSET that belong to the whole chain.
type selectPlan struct {
	sel  *SelectStmt
	from *fromPlan
	subs []*subPlan
	arms []*selectPlan

	stat                                     opStats
	where, aggregate, distinct, limit, union stageStats
}

// subPlan is one subquery expression of a statement with its plan and,
// once it ran, its rows: subqueries are uncorrelated, so each runs at
// most once per execution.
type subPlan struct {
	sq   *Subquery
	plan *selectPlan
	rows [][]Value
	done bool
}

// fromPlan is the planned FROM clause: a tree of joins over scans, the
// WHERE conjuncts left for the filter above it, and how to put the
// columns back in declaration order when the joins were reordered.
type fromPlan struct {
	root      fromNode
	rels      []*relPlan // every scan, in execution order
	residual  Expr       // nil when nothing is left to filter
	free      bool       // the planner chose order and pushdown, and estimated
	reordered bool       // execution order differs from declaration order
}

// fromNode is a relPlan (a scan) or a joinPlan.
type fromNode interface{ isFromNode() }

func (*relPlan) isFromNode()  {}
func (*joinPlan) isFromNode() {}

// relPlan is one relation of a FROM clause (or the target of an UPDATE or
// DELETE): a base table read through access, or a derived table.
type relPlan struct {
	declIdx int         // position in declaration order
	t       *Table      // base table; nil for a derived table
	sub     *selectPlan // derived table; nil for a base table
	alias   string
	qual    string         // lower-cased binding qualifier
	cols    []envCol       // output layout; nil = not known before it runs
	access  *indexScanPlan // nil = sequential scan
	filter  Expr           // AND of the conjuncts pushed down to this scan; nil when none

	baseRows float64 // estimated rows before the pushed filter
	est      float64 // estimated rows after it

	stat     opStats
	pushStat stageStats
}

// joinPlan joins two inputs, left rows in order, each with its matches in
// right order. kind is JoinCross when there is no condition, JoinLeft only
// in a FROM clause the planner left in declaration order. With hash set
// the pairs the condition is evaluated on are found through a hash of the
// right input on one equality of cond; without, every pair is tried.
type joinPlan struct {
	left, right fromNode
	kind        JoinKind
	cond        Expr
	hash        *hashKey
	card, cost  float64 // estimated output rows and cumulative cost (free plans)
	comma       bool    // the product of two comma-listed entries of a pinned FROM
	stat        opStats
}

// hashKey is the join method chosen for a step at plan time: conj is the
// conjunct of the step's condition that equates a column of the left input
// with one of the right relation, class the kind of map that compares the
// two columns' values the way Compare does.
type hashKey struct {
	conj  *Binary
	class keyClass
}

// dmlPlan is the plan of an INSERT, UPDATE or DELETE: the target table,
// the scan that finds the rows to change (nil for INSERT) and the
// subqueries of its expressions.
type dmlPlan struct {
	st   Stmt
	t    *Table
	scan *relPlan
	subs []*subPlan

	filter stageStats // WHERE over the scanned rows
	stat   opStats    // the apply phase
}

// stmtPlan is what EXPLAIN renders: a *selectPlan or a *dmlPlan.
type stmtPlan interface {
	explain(pp *planPrinter)
}

// planStmt plans a statement EXPLAIN accepts without running it. The
// executor's entry points call the typed planners themselves.
func (vw view) planStmt(st Stmt, params []Value) (stmtPlan, error) {
	switch x := st.(type) {
	case *SelectStmt:
		return vw.planSelect(x, params)
	case *InsertStmt:
		return vw.planInsert(x, params)
	case *UpdateStmt:
		return vw.planWrite(x, x.Table, x.Alias, x.Where, params)
	case *DeleteStmt:
		return vw.planWrite(x, x.Table, x.Alias, x.Where, params)
	default:
		return nil, errNotExplainable()
	}
}

func errNotExplainable() *Error {
	return errSyntax("EXPLAIN supports SELECT, INSERT, UPDATE, or DELETE")
}

// planSelect plans a SELECT and everything under it — derived tables,
// subqueries, UNION arms — in declaration order, so the first table that
// does not exist is the error. Caller holds db.mu at least shared.
func (vw view) planSelect(sel *SelectStmt, params []Value) (*selectPlan, error) {
	if len(sel.Unions) == 0 {
		return vw.planArm(sel, params)
	}
	head := *sel
	head.Unions = nil
	head.OrderBy, head.Limit, head.Offset = nil, nil, nil
	up := &selectPlan{sel: sel, arms: make([]*selectPlan, 0, 1+len(sel.Unions))}
	arm, err := vw.planArm(&head, params)
	if err != nil {
		return nil, err
	}
	up.arms = append(up.arms, arm)
	for _, part := range sel.Unions {
		if arm, err = vw.planArm(part.Sel, params); err != nil {
			return nil, err
		}
		up.arms = append(up.arms, arm)
	}
	return up, nil
}

// planArm plans one SELECT without its UNION chain.
func (vw view) planArm(sel *SelectStmt, params []Value) (*selectPlan, error) {
	sp := &selectPlan{sel: sel}
	if len(sel.From) > 0 {
		fp, err := vw.planQuery(sel.From, sel.Where, params)
		if err != nil {
			return nil, err
		}
		sp.from = fp
	}
	sc := subCollector{vw: vw, params: params}
	for _, it := range sel.Items {
		sc.add(it.Expr)
	}
	for i := range sel.From {
		for j := range sel.From[i].Joins {
			sc.add(sel.From[i].Joins[j].On)
		}
	}
	sc.add(sel.Where)
	for _, g := range sel.GroupBy {
		sc.add(g)
	}
	sc.add(sel.Having)
	for _, o := range sel.OrderBy {
		sc.add(o.Expr)
	}
	sp.subs = sc.subs
	return sp, sc.err
}

// subCollector plans the subqueries of a statement's expressions in the
// order it is handed them. walkExpr treats a subquery as a closed scope,
// so a nested one belongs to the plan of the SELECT that contains it.
type subCollector struct {
	vw     view
	params []Value
	subs   []*subPlan
	err    error
}

func (sc *subCollector) add(e Expr) {
	walkExpr(e, func(x Expr) bool {
		if sq, ok := x.(*Subquery); ok && sc.err == nil {
			var p *selectPlan
			if p, sc.err = sc.vw.planSelect(sq.Sel, sc.params); sc.err == nil {
				sc.subs = append(sc.subs, &subPlan{sq: sq, plan: p})
			}
		}
		return sc.err == nil
	})
}

// planInsert plans an INSERT: the target and the subqueries among its
// values.
func (vw view) planInsert(ins *InsertStmt, params []Value) (*dmlPlan, error) {
	t, err := vw.db.table(ins.Table)
	if err != nil {
		return nil, err
	}
	sc := subCollector{vw: vw, params: params}
	for _, row := range ins.Rows {
		for _, e := range row {
			sc.add(e)
		}
	}
	return &dmlPlan{st: ins, t: t, subs: sc.subs}, sc.err
}

// planWrite plans an UPDATE or DELETE: the one-table scan under it, which
// planQuery plans like any other FROM clause, and its subqueries.
func (vw view) planWrite(st Stmt, table, alias string, where Expr, params []Value) (*dmlPlan, error) {
	fp, err := vw.planQuery([]TableRef{{Table: table, Alias: alias}}, where, params)
	if err != nil {
		return nil, err
	}
	scan := fp.rels[0]
	sc := subCollector{vw: vw, params: params}
	sc.add(where)
	if up, ok := st.(*UpdateStmt); ok {
		for _, set := range up.Set {
			sc.add(set.Value)
		}
	}
	return &dmlPlan{st: st, t: scan.t, scan: scan, subs: sc.subs}, sc.err
}
