package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// The plan: one tree per statement execution, built by planStmt and its
// parts before anything runs, and the only thing the executor (exec.go,
// exec2.go), EXPLAIN (explain.go) and — through the summary Check returns
// (static.go) — the linter read. Every decision the engine makes about how
// to read a table is on a node here: which relations join in which order
// and by which method, which conjuncts filter at a scan, which index
// serves a scan. The plan also holds the statement's compiled stages:
// every expression — a scan's filter, a join's condition, the WHERE left
// above them, the grouping keys and aggregate arguments, HAVING, the sort
// keys, the projection, a write's SET and VALUES — resolved against the
// layout of the rows that reach it and compiled (compile.go) into the
// closure the executor calls. The executor follows the nodes, calls the
// closures and leaves its counters on the nodes; EXPLAIN prints the nodes,
// and EXPLAIN ANALYZE the counters beside them.
//
// A reference in an expression that does not resolve does not fail the
// plan: plain EXPLAIN still prints it. The error is kept beside the stage
// and raised by the executor when it reaches the stage, after whatever ran
// before it; Check returns the first one (keptErr). What the plan's shape
// rests on fails planning: a table, an INSERT's target columns, the arity
// of an INSERT's rows and of a UNION's arms.
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
// without the ORDER BY/LIMIT/OFFSET that belong to the whole chain — and
// of the stages only the last three, over its arms' rows.
type selectPlan struct {
	sel  *SelectStmt
	from *fromPlan
	subs []*subPlan
	arms []*selectPlan

	// The compiled stages of a single SELECT, in the order they run.
	width     int      // columns of a row the FROM clause yields
	filter    predFn   // WHERE above the FROM tree; nil when nothing is left there
	filterErr error    // its reference that did not resolve
	names     []string // output column names
	proj      []rowExpr
	// shareRows: ungrouped, without DISTINCT, and proj is a run of adjacent
	// columns of the FROM row in their order, so that an output row is that
	// run of the row itself and nothing is copied.
	shareRows bool
	grouped   bool      // GROUP BY, HAVING or an aggregate: one output row per group
	groupBy   []rowExpr // grouping keys
	aggs      []aggCall // aggregate calls in slot order
	aggRow    []Value   // the current group's results, which the closures read
	having    predFn
	order     []rowExpr   // sort keys, evaluated like the projection
	stagesErr error       // the first reference from the projection on that did not resolve
	orderBy   []OrderItem // the sort keys as written: their directions, and what EXPLAIN prints
	dedupe    bool        // DISTINCT, or a UNION that is not ALL throughout
	limit     limitStage

	stat                               opStats
	where, aggregate, deduped, limited stageStats
}

// limitStage is OFFSET and LIMIT: the operands as written, nil when
// absent, and their values, constant for the execution. err is the operand
// that is no non-negative integer constant, raised when the stage is
// reached.
type limitStage struct {
	offset, limit Expr
	skip, count   int
	err           error
}

// planLimit evaluates sel's OFFSET and LIMIT.
func planLimit(sel *SelectStmt, params []Value) limitStage {
	l := limitStage{offset: sel.Offset, limit: sel.Limit}
	if l.offset != nil {
		l.skip, l.err = constCount(l.offset, "OFFSET", params)
	}
	if l.limit != nil && l.err == nil {
		l.count, l.err = constCount(l.limit, "LIMIT", params)
	}
	return l
}

// cut returns the range of n rows that OFFSET and LIMIT keep.
func (l *limitStage) cut(n int) (from, to int, err error) {
	from, to = min(l.skip, n), n
	// Not from+count: the count may be as large as an int.
	if l.limit != nil && l.count < to-from {
		to = from + l.count
	}
	return from, to, l.err
}

// cut is the OFFSET and LIMIT stage of a single SELECT, which counts what
// it did where the statement has either.
func (sp *selectPlan) cut(n int) (from, to int, err error) {
	from, to, err = sp.limit.cut(n)
	if err == nil && (sp.limit.offset != nil || sp.limit.limit != nil) {
		sp.limited.note(n, to-from)
	}
	return from, to, err
}

// constCount evaluates a LIMIT or OFFSET operand: a constant expression
// with a non-negative integer value.
func constCount(e Expr, clause string, params []Value) (int, error) {
	v, ok := constValue(e, params)
	if !ok {
		return 0, errSyntax("%s must be a constant expression", clause)
	}
	n, ok := v.AsInt()
	if !ok || n < 0 {
		return 0, errSyntax("%s must be a non-negative integer", clause)
	}
	return int(n), nil
}

// aggCall is one aggregate call of a grouped SELECT with its compiled
// argument (none for COUNT(*)).
type aggCall struct {
	fc  *FuncCall
	arg rowExpr
}

// columns returns the SELECT's output column names, a UNION's from its
// first arm; nil when its projection did not resolve.
func (sp *selectPlan) columns() []string {
	if sp.arms != nil {
		return sp.arms[0].names
	}
	return sp.names
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
	remap     []int      // reordered: for each slot in declaration order, its slot in root's rows
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
	off     int            // source offset of the relation
	cols    []envCol       // output layout; nil = not known before it runs
	access  *indexScanPlan // nil = sequential scan
	filter  Expr           // AND of the conjuncts pushed down to this scan; nil when none
	implied []Expr         // those of filter's conjuncts implied equality derived
	pred    predFn         // filter compiled against the scan's layout
	predErr error

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
	pred        predFn // cond compiled against the joined layout
	predErr     error
	leftWidth   int // columns of a left row; a joined row is a left row, then a right row
	width       int
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
	// The key's slot in a left row and in a right row; set where the
	// condition compiled.
	probe, build int
}

// dmlPlan is the plan of an INSERT, UPDATE or DELETE: the target table,
// the scan that finds the rows to change (nil for INSERT) and the
// subqueries of its expressions.
type dmlPlan struct {
	st   Stmt
	t    *Table
	scan *relPlan
	subs []*subPlan

	where   predFn      // UPDATE, DELETE: WHERE over the scanned rows; nil when absent
	set     []setValue  // UPDATE: the assignments
	cols    []int       // INSERT: the table position each value of a row goes to
	values  [][]rowExpr // INSERT: the VALUES rows
	bindErr error       // the first reference that did not resolve

	filter stageStats // WHERE over the scanned rows
	stat   opStats    // the apply phase
}

// setValue is one assignment of an UPDATE: the column's position in the
// table and the compiled value.
type setValue struct {
	pos int
	val rowExpr
}

// stmtPlan is what EXPLAIN renders and Check asks: a *selectPlan or a
// *dmlPlan.
type stmtPlan interface {
	explain(pp *planPrinter)
	// keptErr is the first error of a reference the plan keeps beside
	// its stage, in the order the executor reaches the stages, subqueries
	// last.
	keptErr() error
}

func (sp *selectPlan) keptErr() error {
	var errs []error
	for _, arm := range sp.arms {
		errs = append(errs, arm.keptErr())
	}
	if sp.from != nil {
		errs = append(errs, fromErr(sp.from.root))
	}
	errs = append(errs, sp.filterErr, sp.stagesErr)
	return firstErr(errs, sp.subs)
}

func (dp *dmlPlan) keptErr() error {
	return firstErr([]error{dp.bindErr}, dp.subs)
}

// fromErr is the first error kept in a FROM tree, in the order it runs.
func fromErr(n fromNode) error {
	if jp, ok := n.(*joinPlan); ok {
		return firstErr([]error{fromErr(jp.left), fromErr(jp.right), jp.predErr}, nil)
	}
	rp := n.(*relPlan)
	if rp.sub != nil {
		if err := rp.sub.keptErr(); err != nil {
			return err
		}
	}
	return rp.predErr
}

func firstErr(errs []error, subs []*subPlan) error {
	for _, sub := range subs {
		errs = append(errs, sub.plan.keptErr())
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
		return vw.planWrite(x, x.Table, x.Alias, x.TableOff, x.Where, params)
	case *DeleteStmt:
		return vw.planWrite(x, x.Table, x.Alias, x.TableOff, x.Where, params)
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
	up := &selectPlan{sel: sel, arms: make([]*selectPlan, 0, 1+len(sel.Unions)),
		orderBy: sel.OrderBy, limit: planLimit(sel, params)}
	arm, err := vw.planArm(&head, params)
	if err != nil {
		return nil, err
	}
	up.arms = append(up.arms, arm)
	for _, part := range sel.Unions {
		if arm, err = vw.planArm(part.Sel, params); err != nil {
			return nil, err
		}
		// An arm whose projection did not resolve fails when it runs.
		if n, m := len(up.arms[0].names), len(arm.names); up.arms[0].names != nil && arm.names != nil && n != m {
			err := &Error{Code: CodeCardinality, Message: fmt.Sprintf("UNION arms have %d and %d columns", n, m)}
			if len(part.Sel.From) > 0 {
				err.Off = part.Sel.From[0].Off + 1
			}
			return nil, err
		}
		up.arms = append(up.arms, arm)
		up.dedupe = up.dedupe || !part.All
	}
	// The chain is sorted by output columns, the first arm's, only.
	up.order = make([]rowExpr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		slot, err := orderColumn(o.Expr, up.arms[0].names)
		if ref, ok := o.Expr.(*ColumnRef); ok && slot < 0 {
			err = stampOff(errUndefinedColumn(ref.Column), ref.Off)
		} else if err == nil && slot < 0 {
			err = &Error{Code: CodeFeature,
				Message: "UNION ORDER BY supports output column names and ordinals only"}
		}
		if err != nil && up.stagesErr == nil {
			up.stagesErr = err
		}
		up.order[i] = rowExpr{slot: slot}
	}
	return up, nil
}

// orderColumn resolves a sort key that names an output column — by its
// name, unqualified, or its 1-based ordinal — to the column's position: -1
// for any other expression, an error for an ordinal that names none.
func orderColumn(e Expr, names []string) (int, error) {
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table == "" {
			for j, name := range names {
				if strings.EqualFold(name, x.Column) {
					return j, nil
				}
			}
		}
	case *Literal:
		if x.Val.T == TInt {
			if x.Val.I < 1 || x.Val.I > int64(len(names)) {
				return -1, stampOff(errOrdinalRange(x.Val), x.Off)
			}
			return int(x.Val.I) - 1, nil
		}
	}
	return -1, nil
}

// errOrdinalRange is the error of an ORDER BY ordinal that names no output
// column, of a single SELECT and of a UNION alike.
func errOrdinalRange(v Value) *Error {
	return errSyntax("ORDER BY ordinal %s out of range", v.String())
}

// planArm plans one SELECT without its UNION chain.
func (vw view) planArm(sel *SelectStmt, params []Value) (*selectPlan, error) {
	sp := &selectPlan{sel: sel, orderBy: sel.OrderBy, dedupe: sel.Distinct, limit: planLimit(sel, params)}
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
	if sc.err == nil {
		vw.compileSelect(sp, params)
	}
	return sp, sc.err
}

// compileSelect resolves a single SELECT against the layout its FROM
// clause yields — *, t.*, ORDER BY aliases and ordinals, the aggregate
// calls — and compiles every stage. The stages run in the order the
// fields are set here, and a reference that does not resolve is reported
// by the stage it belongs to: the WHERE's when the filter runs, any later
// one when the projection is reached, the first in this order.
func (vw view) compileSelect(sp *selectPlan, params []Value) {
	sel := sp.sel
	c := compiler{params: params, vw: vw, subs: sp.subs}
	residual := sel.Where // SELECT without FROM evaluates over a single empty row
	if sp.from != nil {
		c.cols = sp.from.compile(&c)
		residual = sp.from.residual
	}
	sp.width = len(c.cols)
	if residual != nil {
		sp.filter, sp.filterErr = c.pred(residual)
	}

	// The aggregate calls, in the order their slots are numbered: as the
	// projection, HAVING and ORDER BY are walked. * and t.* add none.
	for _, it := range sel.Items {
		c.aggs = appendAggregates(c.aggs, it.Expr)
	}
	c.aggs = appendAggregates(c.aggs, sel.Having)
	for _, o := range sel.OrderBy {
		c.aggs = appendAggregates(c.aggs, o.Expr)
	}
	sp.grouped = len(sel.GroupBy) > 0 || len(c.aggs) > 0 || sel.Having != nil
	c.aggRow, c.aggArgs = &sp.aggRow, newAggArgs(len(c.aggs))

	fail := func(err error) {
		if sp.stagesErr == nil {
			sp.stagesErr = err
		}
	}
	names, proj, exprs, err := vw.expandProjection(sel, c.cols)
	if err != nil {
		sp.stagesErr = err
		return
	}
	for i, e := range exprs {
		if e != nil {
			if proj[i], err = c.value(e); err != nil {
				fail(err)
			}
		}
	}
	sp.names, sp.proj = names, proj
	if len(sel.GroupBy) > 0 {
		// A grouping key sees rows, not groups.
		rowc := c
		rowc.aggs = nil
		sp.groupBy = make([]rowExpr, len(sel.GroupBy))
		for i, g := range sel.GroupBy {
			if sp.groupBy[i], err = rowc.value(g); err != nil {
				fail(err)
			}
		}
	}
	if sel.Having != nil {
		if sp.having, err = c.pred(sel.Having); err != nil {
			fail(err)
		}
	}
	// A sort key that names an output column, or gives its ordinal, is
	// that column's expression.
	if len(sel.OrderBy) > 0 {
		sp.order = make([]rowExpr, len(sel.OrderBy))
	}
	for i, o := range sel.OrderBy {
		slot, err := orderColumn(o.Expr, names)
		if err == nil && slot >= 0 {
			sp.order[i] = proj[slot]
		} else if err == nil {
			sp.order[i], err = c.value(o.Expr)
		}
		if err != nil {
			fail(err)
		}
	}
	sp.aggs = make([]aggCall, len(c.aggs))
	for i, fc := range c.aggs {
		switch {
		case fc.Star:
		case len(fc.Args) != 1:
			fail(&Error{Code: CodeWrongArity, Off: fc.Off + 1,
				Message: fmt.Sprintf("%s expects 1 argument, got %d", fc.Name, len(fc.Args))})
		case c.aggArgs[i].uncompiled():
			// The expression the call stands in compiled without reaching it:
			// better no result than the aggregate of some other column.
			fail(errInternal("the argument of " + fc.Name + " was not compiled"))
		}
		sp.aggs[i] = aggCall{fc: fc, arg: c.aggArgs[i]}
	}
	sp.shareRows = sp.stagesErr == nil && len(proj) > 0 && !sp.grouped && !sel.Distinct
	for i, e := range proj {
		sp.shareRows = sp.shareRows && e.isColumn() && e.slot == proj[0].slot+i
	}
}

// columnSlots returns the slots of exprs where every one of them is a bare
// column, nil otherwise and for none.
func columnSlots(exprs []rowExpr) []int {
	if len(exprs) == 0 {
		return nil
	}
	slots := make([]int, len(exprs))
	for i, e := range exprs {
		if !e.isColumn() {
			return nil
		}
		slots[i] = e.slot
	}
	return slots
}

// appendAggregates appends the aggregate calls of e, outermost only: an
// aggregate inside another's argument has no group to be the result of.
func appendAggregates(aggs []*FuncCall, e Expr) []*FuncCall {
	walkExpr(e, func(x Expr) bool {
		fc, ok := x.(*FuncCall)
		if ok && isAggregate(fc.Name) {
			aggs = append(aggs, fc)
			return false
		}
		return true
	})
	return aggs
}

// compile gives every node of the FROM tree the layout of its rows,
// compiles the filters and conditions against them, and returns the
// layout of the whole clause in declaration order.
func (fp *fromPlan) compile(c *compiler) []envCol {
	cols := compileFromNode(fp.root, c)
	if !fp.reordered {
		return cols
	}
	// Projection, *-expansion and ambiguity resolution must see the layout
	// the statement declared: find each relation's block in root's rows.
	type block struct{ off, w int }
	blocks := make([]block, len(fp.rels)) // by declaration position
	off := 0
	for _, rp := range fp.rels {
		blocks[rp.declIdx] = block{off: off, w: len(rp.cols)}
		off += len(rp.cols)
	}
	out := make([]envCol, 0, len(cols))
	fp.remap = make([]int, 0, len(cols))
	for _, b := range blocks {
		out = append(out, cols[b.off:b.off+b.w]...)
		for k := 0; k < b.w; k++ {
			fp.remap = append(fp.remap, b.off+k)
		}
	}
	return out
}

func compileFromNode(n fromNode, c *compiler) []envCol {
	if rp, ok := n.(*relPlan); ok {
		cols := rp.layout()
		if rp.filter != nil {
			// Nothing with a subquery in it is pushed down to a scan.
			sc := compiler{cols: cols, params: c.params, vw: c.vw}
			rp.pred, rp.predErr = sc.pred(rp.filter)
		}
		return cols
	}
	jp := n.(*joinPlan)
	left, right := compileFromNode(jp.left, c), compileFromNode(jp.right, c)
	cols := append(left[:len(left):len(left)], right...)
	jp.leftWidth, jp.width = len(left), len(cols)
	if jp.cond == nil {
		return cols
	}
	jc := compiler{cols: cols, params: c.params, vw: c.vw, subs: c.subs}
	jp.pred, jp.predErr = jc.pred(jp.cond)
	if h := jp.hash; h != nil && jp.predErr == nil {
		// The condition resolved, so its two key columns do, one to each side.
		h.probe, _ = resolveColumn(cols, h.conj.L.(*ColumnRef))
		h.build, _ = resolveColumn(cols, h.conj.R.(*ColumnRef))
		if h.probe >= len(left) {
			h.probe, h.build = h.build, h.probe
		}
		if h.probe >= len(left) || h.build < len(left) {
			jp.predErr = errInternal("hash key columns are not one from each input")
		}
		h.build -= len(left)
	}
	return cols
}

// layout returns the layout of the relation's rows. The planner leaves
// cols nil for a derived table whose output names it does not attribute
// conjuncts through (SELECT *, t.*); its plan knows them all the same.
func (rp *relPlan) layout() []envCol {
	if rp.cols != nil || rp.sub == nil {
		return rp.cols
	}
	names := rp.sub.columns()
	cols := make([]envCol, len(names))
	for i, name := range names {
		cols[i] = envCol{tbl: rp.qual, name: strings.ToLower(name)}
	}
	return cols
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

// planInsert plans an INSERT: the target, the column each value goes to,
// and the subqueries among its values.
func (vw view) planInsert(ins *InsertStmt, params []Value) (*dmlPlan, error) {
	t, err := vw.db.table(ins.Table)
	if err != nil {
		return nil, stampOff(err, ins.TableOff)
	}
	dp := &dmlPlan{st: ins, t: t, cols: make([]int, 0, len(t.Columns))}
	if len(ins.Columns) == 0 {
		for i := range t.Columns {
			dp.cols = append(dp.cols, i)
		}
	}
	for i, name := range ins.Columns {
		p := t.colIndex(name)
		switch {
		case p < 0:
			return nil, stampOff(errUndefinedColumn(name), ins.ColumnOffs[i])
		case slices.Contains(dp.cols, p):
			return nil, stampOff(errSyntax("column %q specified twice", name), ins.ColumnOffs[i])
		}
		dp.cols = append(dp.cols, p)
	}
	for _, row := range ins.Rows {
		if len(row) != len(dp.cols) {
			return nil, stampOff(&Error{Code: CodeCardinality,
				Message: fmt.Sprintf("INSERT has %d values for %d columns", len(row), len(dp.cols))}, ExprOff(row[0]))
		}
	}
	sc := subCollector{vw: vw, params: params}
	for _, row := range ins.Rows {
		for _, e := range row {
			sc.add(e)
		}
	}
	dp.subs = sc.subs
	if sc.err != nil {
		return dp, sc.err
	}
	c := compiler{params: params, vw: vw, subs: dp.subs}
	dp.values = make([][]rowExpr, len(ins.Rows))
	for i, row := range ins.Rows {
		dp.values[i] = make([]rowExpr, len(row))
		for j, e := range row {
			// VALUES sees no columns: a reference is the statement's error.
			if dp.values[i][j], err = c.value(e); err != nil && dp.bindErr == nil {
				dp.bindErr = err
			}
		}
	}
	return dp, nil
}

// planWrite plans an UPDATE or DELETE: the one-table scan under it, which
// planQuery plans like any other FROM clause, and its subqueries.
func (vw view) planWrite(st Stmt, table, alias string, off int, where Expr, params []Value) (*dmlPlan, error) {
	fp, err := vw.planQuery([]TableRef{{Table: table, Alias: alias, Off: off}}, where, params)
	if err != nil {
		return nil, err
	}
	scan := fp.rels[0]
	sc := subCollector{vw: vw, params: params}
	sc.add(where)
	up, _ := st.(*UpdateStmt)
	if up != nil {
		for _, set := range up.Set {
			sc.add(set.Value)
		}
	}
	dp := &dmlPlan{st: st, t: scan.t, scan: scan, subs: sc.subs}
	if sc.err != nil {
		return dp, sc.err
	}
	fail := func(err error) {
		if dp.bindErr == nil {
			dp.bindErr = err
		}
	}
	c := compiler{cols: scan.cols, params: params, vw: vw, subs: dp.subs}
	if where != nil {
		if dp.where, err = c.pred(where); err != nil {
			fail(err)
		}
	}
	if up != nil {
		dp.set = make([]setValue, len(up.Set))
		for i, set := range up.Set {
			pos := scan.t.colIndex(set.Column)
			if pos < 0 {
				fail(stampOff(errUndefinedColumn(set.Column), set.ColOff))
			}
			dp.set[i].pos = pos
			if dp.set[i].val, err = c.value(set.Value); err != nil {
				fail(err)
			}
		}
	}
	return dp, nil
}
