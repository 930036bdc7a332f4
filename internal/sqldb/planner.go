package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// The plan: one tree per statement execution, built by planStmt and its
// parts before anything runs, and the only thing the executor (exec.go),
// EXPLAIN (explain.go) and — through the summary Check returns
// (static.go) — the linter read. Every decision the engine makes about how
// to read a table is on a node here: which relations join in which order
// and by which method, which conjuncts filter at a scan, which index
// serves a scan. Which conjunct filters which relation is decided once,
// by attribute (stats.go), whose record the query cache's read set reads
// too (precision.go). The plan also holds the statement's compiled stages:
// every expression — a scan's filter, a join's condition, the WHERE left
// above them, the grouping keys and aggregate arguments, the sort
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
// of an INSERT's rows.
//
// A plan is built per execution and never kept on the statement: the
// parse cache (plan.go) hands every text of a shape one parsed tree, run
// with that text's values bound, and the statistics the choices rest on
// move between executions. It holds resolved *Table and *Index pointers,
// so it is valid only under the catalog lock it was built under.

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
// aggregate, a pushed or DML filter).
type stageStats struct {
	calls   int
	in, out int
}

func (s *stageStats) note(in, out int) {
	s.calls++
	s.in += in
	s.out += out
}

// selectPlan is the plan of a SELECT: its FROM tree (nil without a FROM
// clause) and the stages above it.
type selectPlan struct {
	from *fromPlan

	// The compiled stages, in the order they run.
	width     int      // columns of a row the FROM clause yields
	residual  Expr     // WHERE above the FROM tree (all of it without one); nil when nothing is left there
	filter    predFn   // residual compiled
	filterErr error    // its reference that did not resolve
	names     []string // output column names
	proj      []rowExpr
	// shareRows: ungrouped, and proj is a run of adjacent columns of the
	// FROM row in their order, so that an output row is that run of the
	// row itself and nothing is copied.
	shareRows bool
	grouped   bool      // GROUP BY or an aggregate: one output row per group
	groupKeys []Expr    // GROUP BY
	groupBy   []rowExpr // groupKeys compiled
	aggs      []aggCall // aggregate calls in slot order
	aggRow    []Value   // the current group's results, which the closures read
	orderBy   []OrderItem
	order     []rowExpr // orderBy's keys, evaluated like the projection
	stagesErr error     // the first reference from the projection on that did not resolve

	stat             opStats
	where, aggregate stageStats
}

// aggCall is one aggregate call of a grouped SELECT with its compiled
// argument (none for COUNT(*)).
type aggCall struct {
	fc  *FuncCall
	arg rowExpr
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
	// likes are the programs planning built for LIKE patterns it read a
	// prefix from, which the compiler takes instead of building them again.
	likes []*likeProgram
}

// fromNode is a relPlan (a scan) or a joinPlan.
type fromNode interface{ isFromNode() }

func (*relPlan) isFromNode()  {}
func (*joinPlan) isFromNode() {}

// relPlan is one relation of a FROM clause (or the target of an UPDATE or
// DELETE): a base table read through access.
type relPlan struct {
	declIdx int    // position in declaration order
	t       *Table // the table
	alias   string
	qual    string         // lower-cased binding qualifier
	off     int            // source offset of the relation
	cols    []envCol       // output layout
	access  *indexScanPlan // nil = sequential scan
	// conds are the conjuncts of the statement's WHERE and inner ONs that
	// name this relation alone, in the order written, then the nImplied
	// that implied equality derived: attribute's and impliedConds' record,
	// which a free plan pushes down to the scan as filter.
	conds    []Expr
	nImplied int
	filter   Expr   // AND of conds in a free plan; nil when none or not pushed
	pred     predFn // filter compiled against the scan's layout
	predErr  error

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

// dmlPlan is the plan of an INSERT, UPDATE or DELETE: the target table
// and the scan that finds the rows to change (nil for INSERT).
type dmlPlan struct {
	st   Stmt
	t    *Table
	scan *relPlan

	residual Expr        // UPDATE, DELETE: WHERE, above the scan; nil when absent
	where    predFn      // residual compiled against the scanned rows
	set      []setValue  // UPDATE: the assignments
	cols     []int       // INSERT: the table position each value of a row goes to
	values   [][]rowExpr // INSERT: the VALUES rows
	bindErr  error       // the first reference that did not resolve

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
	// its stage, in the order the executor reaches the stages.
	keptErr() error
}

func (sp *selectPlan) keptErr() error {
	errs := []error{nil, sp.filterErr, sp.stagesErr}
	if sp.from != nil {
		errs[0] = fromErr(sp.from.root)
	}
	return firstErr(errs...)
}

func (dp *dmlPlan) keptErr() error { return dp.bindErr }

// fromErr is the first error kept in a FROM tree, in the order it runs.
func fromErr(n fromNode) error {
	if jp, ok := n.(*joinPlan); ok {
		return firstErr(fromErr(jp.left), fromErr(jp.right), jp.predErr)
	}
	return n.(*relPlan).predErr
}

func firstErr(errs ...error) error {
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

// planSelect plans a SELECT: its FROM clause, in declaration order, so
// the first table that does not exist is the error, then its stages.
// Caller holds db.mu at least shared.
func (vw view) planSelect(sel *SelectStmt, params []Value) (*selectPlan, error) {
	sp := &selectPlan{}
	if len(sel.From) > 0 {
		fp, err := vw.planQuery(sel.From, sel.Where, params)
		if err != nil {
			return nil, err
		}
		sp.from = fp
	}
	vw.compileSelect(sp, sel, params)
	return sp, nil
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
// column.
func errOrdinalRange(v Value) *Error {
	return errSyntax("ORDER BY ordinal %s out of range", v.String())
}

// compileSelect resolves a SELECT against the layout its FROM
// clause yields — *, t.*, ORDER BY aliases and ordinals, the aggregate
// calls — and compiles every stage. The stages run in the order the
// fields are set here, and a reference that does not resolve is reported
// by the stage it belongs to: the WHERE's when the filter runs, any later
// one when the projection is reached, the first in this order.
func (vw view) compileSelect(sp *selectPlan, sel *SelectStmt, params []Value) {
	c := compiler{params: params, bind: vw.bind}
	sp.residual = sel.Where // SELECT without FROM evaluates over a single empty row
	if sp.from != nil {
		c.likes = sp.from.likes
		c.cols = sp.from.compile(&c)
		sp.residual = sp.from.residual
	}
	sp.width = len(c.cols)
	if sp.residual != nil {
		sp.filter, sp.filterErr = c.pred(sp.residual)
	}
	sp.groupKeys, sp.orderBy = sel.GroupBy, sel.OrderBy

	// The aggregate calls, in the order their slots are numbered: as the
	// projection and ORDER BY are walked. * and t.* add none.
	for _, it := range sel.Items {
		c.aggs = appendAggregates(c.aggs, it.Expr)
	}
	for _, o := range sp.orderBy {
		c.aggs = appendAggregates(c.aggs, o.Expr)
	}
	sp.grouped = len(sp.groupKeys) > 0 || len(c.aggs) > 0
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
	if len(sp.groupKeys) > 0 {
		// A grouping key sees rows, not groups.
		rowc := c
		rowc.aggs = nil
		sp.groupBy = make([]rowExpr, len(sp.groupKeys))
		for i, g := range sp.groupKeys {
			if sp.groupBy[i], err = rowc.value(g); err != nil {
				fail(err)
			}
		}
	}
	// A sort key that names an output column, or gives its ordinal, is
	// that column's expression.
	if len(sp.orderBy) > 0 {
		sp.order = make([]rowExpr, len(sp.orderBy))
	}
	for i, o := range sp.orderBy {
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
	sp.shareRows = sp.stagesErr == nil && len(proj) > 0 && !sp.grouped
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
		if rp.filter != nil {
			sc := compiler{cols: rp.cols, params: c.params, bind: c.bind, likes: c.likes}
			rp.pred, rp.predErr = sc.pred(rp.filter)
		}
		return rp.cols
	}
	jp := n.(*joinPlan)
	left, right := compileFromNode(jp.left, c), compileFromNode(jp.right, c)
	cols := append(left[:len(left):len(left)], right...)
	jp.leftWidth, jp.width = len(left), len(cols)
	if jp.cond == nil {
		return cols
	}
	jc := compiler{cols: cols, params: c.params, bind: c.bind}
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

// planInsert plans an INSERT: the target and the column each value goes
// to.
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
	c := compiler{params: params, bind: vw.bind}
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
// planQuery plans like any other FROM clause.
func (vw view) planWrite(st Stmt, table, alias string, off int, where Expr, params []Value) (*dmlPlan, error) {
	fp, err := vw.planQuery([]TableRef{{Table: table, Alias: alias, Off: off}}, where, params)
	if err != nil {
		return nil, err
	}
	scan := fp.rels[0]
	up, _ := st.(*UpdateStmt)
	dp := &dmlPlan{st: st, t: scan.t, scan: scan, residual: fp.residual}
	fail := func(err error) {
		if dp.bindErr == nil {
			dp.bindErr = err
		}
	}
	c := compiler{cols: scan.cols, params: params, bind: vw.bind, likes: fp.likes}
	if dp.residual != nil {
		if dp.where, err = c.pred(dp.residual); err != nil {
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
