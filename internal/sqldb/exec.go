package sqldb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Result is the outcome of executing one statement. SELECT fills Columns
// and Rows; DML fills RowsAffected (and LastInsertID for single-row
// INSERT). Results are fully materialised: the engine evaluates the query
// under the database lock and hands the caller an immutable snapshot,
// which the Rows cursor then walks row-at-a-time (the fetch model the
// macro engine's %ROW block expects).
type Result struct {
	Columns      []string
	Rows         [][]Value
	RowsAffected int64
	LastInsertID int64
}

// --- row source assembly ---

// rowSet is an intermediate table of rows with a named layout.
type rowSet struct {
	cols []envCol
	rows [][]Value
}

// scanRows reads rp's base table the way the plan says — through the
// chosen index, or the whole heap — and resolves each candidate against
// the view's snapshot under a shared table latch held only for the scan;
// the returned value slices are immutable once committed, so evaluation
// proceeds latch-free. Candidates are in row-ID order so results stay
// deterministic. An index scan over-approximates (postings are a multiset
// over versions), so the caller re-applies the predicate. With keepRows
// the stored rows come back beside their values, for UPDATE and DELETE.
func (vw view) scanRows(rp *relPlan, keepRows bool) (vals [][]Value, rows []*storedRow) {
	t := rp.t
	start := vw.clock()
	t.mu.RLock()
	cands := t.rows
	if rp.access != nil {
		cands = t.runIndexScan(rp.access)
	}
	vals = make([][]Value, 0, len(cands))
	if keepRows {
		rows = make([]*storedRow, 0, len(cands))
	}
	for _, r := range cands {
		if v := r.visibleVersion(vw.txn, vw.snap); v != nil {
			vals = append(vals, v.vals)
			if keepRows {
				rows = append(rows, r)
			}
		}
	}
	t.mu.RUnlock()
	noteScan(t, rp.access, len(vals))
	rp.stat.done(start, len(cands), len(vals))
	return vals, rows
}

// noteScan bumps the per-table and per-index access counters for one
// scan. Unconditional: the counters are plain atomics, cheap enough to
// keep accurate even when the obs registry is disabled.
func noteScan(t *Table, plan *indexScanPlan, rows int) {
	if plan != nil {
		t.idxScans.Add(1)
		plan.ix.scans.Add(1)
	} else {
		t.seqScans.Add(1)
	}
	t.rowsRead.Add(int64(rows))
}

// andConjuncts flattens a chain of top-level ANDs.
func andConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(andConjuncts(b.L), andConjuncts(b.R)...)
	}
	return []Expr{e}
}

// constValue evaluates e if it is constant for the statement.
func constValue(e Expr, params []Value) (Value, bool) {
	if !constShaped(e) {
		return Null, false
	}
	v, err := eval(e, &evalEnv{params: params})
	if err != nil {
		return Null, false
	}
	return v, true
}

// runIndexScan executes a planned index access. Because postings are a
// multiset over row versions, the same row ID can surface more than
// once; collect sorts and de-duplicates so each candidate appears
// exactly once, in row-ID order. Caller holds the table latch.
func (t *Table) runIndexScan(p *indexScanPlan) []*storedRow {
	collect := func(ids []int64) []*storedRow {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		rows := make([]*storedRow, 0, len(ids))
		last := int64(-1)
		for _, id := range ids {
			if id == last {
				continue
			}
			last = id
			if r, ok := t.byID[id]; ok {
				rows = append(rows, r)
			}
		}
		return rows
	}
	var ids []int64
	gather := func(_ Value, post []int64) bool {
		ids = append(ids, post...)
		return true
	}
	switch p.op {
	case "=":
		ids = append(ids, p.ix.tree.lookup(p.key)...)
	case "<":
		p.ix.tree.ascendRange(nil, &p.key, false, false, gather)
	case "<=":
		p.ix.tree.ascendRange(nil, &p.key, false, true, gather)
	case ">":
		p.ix.tree.ascendRange(&p.key, nil, false, false, gather)
	case ">=":
		p.ix.tree.ascendRange(&p.key, nil, true, false, gather)
	case "like":
		p.ix.tree.scanPrefix(p.prefix, gather)
	}
	return collect(ids)
}

// crossJoin combines two row sets with a filter-less nested loop.
func crossJoin(a, b *rowSet) *rowSet {
	out := &rowSet{cols: append(append([]envCol{}, a.cols...), b.cols...)}
	out.rows = make([][]Value, 0, len(a.rows)*len(b.rows))
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			row := make([]Value, 0, len(ra)+len(rb))
			row = append(row, ra...)
			row = append(row, rb...)
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// scanRel produces one planned relation's row set: the base-table scan
// through its access path, or the derived table's result under its alias,
// with the conjuncts the planner pushed to this relation applied.
func (vw view) scanRel(rp *relPlan, params []Value) (*rowSet, error) {
	rs := &rowSet{cols: rp.cols}
	if rp.sub != nil {
		start := vw.clock()
		res, err := vw.execSelect(rp.sub, params)
		if err != nil {
			return nil, err
		}
		rs.rows = res.Rows
		rs.cols = make([]envCol, len(res.Columns))
		for i, c := range res.Columns {
			rs.cols[i] = envCol{tbl: rp.qual, name: strings.ToLower(c)}
		}
		rp.stat.done(start, len(rs.rows), len(rs.rows))
	} else {
		rs.rows, _ = vw.scanRows(rp, false)
	}
	if rp.filter == nil {
		return rs, nil
	}
	env := &evalEnv{cols: rs.cols, params: params, vw: &vw}
	if err := bindExpr(rp.filter, env); err != nil {
		return nil, err
	}
	kept := rs.rows[:0:0]
	for _, r := range rs.rows {
		env.row = r
		v, err := eval(rp.filter, env)
		if err != nil {
			return nil, err
		}
		if t, known := v.Truth(); known && t {
			kept = append(kept, r)
		}
	}
	rp.pushStat.note(len(rs.rows), len(kept))
	rs.rows = kept
	return rs, nil
}

// execFromNode runs one node of the FROM tree: a scan, or the join of its
// two inputs, left first, by the method on the node.
func (vw view) execFromNode(n fromNode, params []Value, subs []*subPlan) (*rowSet, error) {
	jp, ok := n.(*joinPlan)
	if !ok {
		return vw.scanRel(n.(*relPlan), params)
	}
	left, err := vw.execFromNode(jp.left, params, subs)
	if err != nil {
		return nil, err
	}
	right, err := vw.execFromNode(jp.right, params, subs)
	if err != nil {
		return nil, err
	}
	start := vw.clock()
	var out *rowSet
	examined := len(left.rows) * len(right.rows)
	if jp.cond == nil && jp.kind != JoinLeft {
		out = crossJoin(left, right)
	} else if out, examined, err = vw.joinOn(left, right, jp, params, subs); err != nil {
		return nil, err
	}
	jp.stat.done(start, examined, len(out.rows))
	return out, nil
}

// execFromPlan executes a planned FROM clause — the only way a FROM
// clause runs — then remaps the layout back to declaration order when
// the planner reordered: projection, *-expansion, and ambiguity
// resolution must see the layout the statement declared.
func (vw view) execFromPlan(fp *fromPlan, params []Value, subs []*subPlan) (*rowSet, error) {
	acc, err := vw.execFromNode(fp.root, params, subs)
	if err != nil || !fp.reordered {
		return acc, err
	}
	type block struct{ off, w int }
	blocks := make([]block, len(fp.rels)) // indexed by declaration position
	off := 0
	for _, rp := range fp.rels {
		blocks[rp.declIdx] = block{off: off, w: len(rp.cols)}
		off += len(rp.cols)
	}
	out := &rowSet{cols: make([]envCol, 0, len(acc.cols))}
	for _, b := range blocks {
		out.cols = append(out.cols, acc.cols[b.off:b.off+b.w]...)
	}
	out.rows = make([][]Value, len(acc.rows))
	for ri, r := range acc.rows {
		nr := make([]Value, 0, len(r))
		for _, b := range blocks {
			nr = append(nr, r[b.off:b.off+b.w]...)
		}
		out.rows[ri] = nr
	}
	return out, nil
}

// --- SELECT execution ---

// projection describes the output columns of a SELECT.
type projection struct {
	names []string
	exprs []Expr
}

// expandProjection resolves *, t.*, and expression items into a concrete
// column list against the FROM layout.
func (vw view) expandProjection(sel *SelectStmt, from *rowSet) (*projection, error) {
	pr := &projection{}
	addStarFor := func(qual string) error {
		matched := false
		for i, ec := range from.cols {
			if qual != "" && ec.tbl != qual {
				continue
			}
			matched = true
			pr.names = append(pr.names, vw.displayColumnName(ec))
			pr.exprs = append(pr.exprs, &ColumnRef{Table: ec.tbl, Column: ec.name, slot: i})
		}
		if qual != "" && !matched {
			return errUndefinedTable(qual)
		}
		return nil
	}
	if sel.Star {
		if err := addStarFor(""); err != nil {
			return nil, err
		}
		return pr, nil
	}
	for i, item := range sel.Items {
		if item.TableStar != "" {
			if err := addStarFor(strings.ToLower(item.TableStar)); err != nil {
				return nil, err
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if c, ok := item.Expr.(*ColumnRef); ok {
				name = c.Column
			} else {
				name = fmt.Sprintf("COL%d", i+1)
			}
		}
		pr.names = append(pr.names, name)
		pr.exprs = append(pr.exprs, item.Expr)
	}
	return pr, nil
}

// displayColumnName recovers the catalog-cased column name for a layout
// slot, falling back to the lower-cased layout name.
func (vw view) displayColumnName(ec envCol) string {
	if t, err := vw.db.table(ec.tbl); err == nil {
		if i := t.colIndex(ec.name); i >= 0 {
			return t.Columns[i].Name
		}
	}
	// The qualifier may be an alias; search all tables for a unique match.
	for _, t := range vw.db.tables {
		if i := t.colIndex(ec.name); i >= 0 {
			return t.Columns[i].Name
		}
	}
	return ec.name
}

// collectAggregates walks the projection, HAVING, and ORDER BY expressions
// assigning aggregate slots. It returns the aggregate calls in slot order.
func collectAggregates(pr *projection, sel *SelectStmt) []*FuncCall {
	var aggs []*FuncCall
	assign := func(e Expr) {
		walkExpr(e, func(x Expr) bool {
			if fc, ok := x.(*FuncCall); ok && isAggregate(fc.Name) {
				fc.aggSlot = len(aggs)
				aggs = append(aggs, fc)
				return false // no nested aggregates
			}
			return true
		})
	}
	for _, e := range pr.exprs {
		assign(e)
	}
	assign(sel.Having)
	for _, o := range sel.OrderBy {
		assign(o.Expr)
	}
	return aggs
}

// execSelect runs a planned SELECT: a single one, or a UNION chain.
func (vw view) execSelect(sp *selectPlan, params []Value) (*Result, error) {
	if sp.arms == nil {
		return vw.execSelectSingle(sp, params)
	}
	return vw.execUnion(sp, params)
}

func (vw view) execSelectSingle(sp *selectPlan, params []Value) (*Result, error) {
	sel := sp.sel
	selStart := vw.clock()
	// SELECT without FROM evaluates expressions over a single empty row.
	from, residual := &rowSet{rows: [][]Value{{}}}, sel.Where
	if sp.from != nil {
		var err error
		if from, err = vw.execFromPlan(sp.from, params, sp.subs); err != nil {
			return nil, err
		}
		residual = sp.from.residual
	}
	env := &evalEnv{cols: from.cols, params: params, vw: &vw, subs: sp.subs}

	// WHERE filter: what the planner did not push into scans or join steps.
	rows := from.rows
	if residual != nil {
		if err := bindExpr(residual, env); err != nil {
			return nil, err
		}
		kept := rows[:0:0]
		for _, r := range rows {
			env.row = r
			v, err := eval(residual, env)
			if err != nil {
				return nil, err
			}
			t, known := v.Truth()
			if known && t {
				kept = append(kept, r)
			}
		}
		rows = kept
		sp.where.note(len(from.rows), len(rows))
	}

	pr, err := vw.expandProjection(sel, from)
	if err != nil {
		return nil, err
	}
	aggs := collectAggregates(pr, sel)
	grouped := len(sel.GroupBy) > 0 || len(aggs) > 0 || sel.Having != nil

	// Resolve ORDER BY items that reference select aliases or ordinals.
	orderExprs := make([]Expr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		orderExprs[i] = o.Expr
		if c, ok := o.Expr.(*ColumnRef); ok && c.Table == "" {
			for j, name := range pr.names {
				if strings.EqualFold(name, c.Column) {
					orderExprs[i] = pr.exprs[j]
					break
				}
			}
		}
		if l, ok := o.Expr.(*Literal); ok && l.Val.T == TInt {
			n := int(l.Val.I)
			if n >= 1 && n <= len(pr.exprs) {
				orderExprs[i] = pr.exprs[n-1]
			}
		}
	}

	// Bind everything that evaluates against the FROM layout.
	for _, e := range pr.exprs {
		if err := bindExpr(e, env); err != nil {
			return nil, err
		}
	}
	for _, e := range sel.GroupBy {
		if err := bindExpr(e, env); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := bindExpr(sel.Having, env); err != nil {
			return nil, err
		}
	}
	for _, e := range orderExprs {
		if err := bindExpr(e, env); err != nil {
			return nil, err
		}
	}
	for _, fc := range aggs {
		if !fc.Star && len(fc.Args) != 1 {
			return nil, &Error{Code: CodeWrongArity,
				Message: fmt.Sprintf("%s expects 1 argument, got %d", fc.Name, len(fc.Args))}
		}
		for _, a := range fc.Args {
			if err := bindExpr(a, env); err != nil {
				return nil, err
			}
		}
	}

	// The rows that reach ORDER BY and the projection: FROM rows, or one
	// representative row per group with its aggregate results beside it.
	// Both evaluate through the one env, whose row (and aggs) is swapped.
	outs := rows
	var outAggs [][]Value

	if grouped {
		type group struct {
			rep    []Value
			states []*aggState
		}
		var order []string
		groups := map[string]*group{}
		for _, r := range rows {
			env.row = r
			keyVals := make([]Value, len(sel.GroupBy))
			for i, g := range sel.GroupBy {
				v, err := eval(g, env)
				if err != nil {
					return nil, err
				}
				keyVals[i] = v
			}
			k := identityKey(keyVals)
			grp, ok := groups[k]
			if !ok {
				grp = &group{rep: r}
				for _, fc := range aggs {
					grp.states = append(grp.states, newAggState(fc))
				}
				groups[k] = grp
				order = append(order, k)
			}
			for i, fc := range aggs {
				if fc.Star {
					if err := grp.states[i].add(Null, true); err != nil {
						return nil, err
					}
					continue
				}
				av, err := eval(fc.Args[0], env)
				if err != nil {
					return nil, err
				}
				if err := grp.states[i].add(av, false); err != nil {
					return nil, err
				}
			}
		}
		// A grouped query with no GROUP BY and no input rows still yields
		// one row of aggregates over the empty set.
		if len(sel.GroupBy) == 0 && len(order) == 0 {
			grp := &group{rep: make([]Value, len(from.cols))}
			for _, fc := range aggs {
				grp.states = append(grp.states, newAggState(fc))
			}
			groups[""] = grp
			order = append(order, "")
		}
		outs = nil
		for _, k := range order {
			grp := groups[k]
			env.row, env.aggs = grp.rep, make([]Value, len(aggs))
			for i, st := range grp.states {
				env.aggs[i] = st.result()
			}
			if sel.Having != nil {
				v, err := eval(sel.Having, env)
				if err != nil {
					return nil, err
				}
				t, known := v.Truth()
				if !known || !t {
					continue
				}
			}
			outs = append(outs, grp.rep)
			outAggs = append(outAggs, env.aggs)
		}
		sp.aggregate.note(len(rows), len(outs))
	}
	at := func(i int) {
		env.row = outs[i]
		if grouped {
			env.aggs = outAggs[i]
		}
	}

	// ORDER BY.
	var perm []int32
	if nk := len(orderExprs); nk > 0 {
		keys := make([]Value, len(outs)*nk)
		for i := range outs {
			at(i)
			for j, e := range orderExprs {
				v, err := eval(e, env)
				if err != nil {
					return nil, err
				}
				keys[i*nk+j] = v
			}
		}
		if perm, err = sortOrder(keys, sel.OrderBy); err != nil {
			return nil, err
		}
	}

	// Projection, in sorted order; the rows share one backing array.
	res := &Result{Columns: pr.names, Rows: make([][]Value, len(outs))}
	width := len(pr.exprs)
	cells := make([]Value, len(outs)*width)
	for k := range outs {
		i := k
		if perm != nil {
			i = int(perm[k])
		}
		at(i)
		row := cells[k*width : (k+1)*width : (k+1)*width]
		for c, e := range pr.exprs {
			v, err := eval(e, env)
			if err != nil {
				return nil, err
			}
			row[c] = v
		}
		res.Rows[k] = row
	}

	// DISTINCT.
	if sel.Distinct {
		seen := map[string]struct{}{}
		kept := res.Rows[:0:0]
		for _, r := range res.Rows {
			k := identityKey(r)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			kept = append(kept, r)
		}
		sp.distinct.note(len(res.Rows), len(kept))
		res.Rows = kept
	}

	if sel.Limit != nil || sel.Offset != nil {
		preLimit := len(res.Rows)
		if res.Rows, err = limitRows(res.Rows, sel, params); err != nil {
			return nil, err
		}
		sp.limit.note(preLimit, len(res.Rows))
	}
	sp.stat.done(selStart, 0, len(res.Rows))
	res.RowsAffected = int64(len(res.Rows))
	return res, nil
}

// limitRows applies sel's OFFSET and LIMIT to a SELECT's or a UNION
// chain's final rows.
func limitRows(rows [][]Value, sel *SelectStmt, params []Value) ([][]Value, error) {
	if sel.Offset != nil {
		n, err := constCount(sel.Offset, "OFFSET", params)
		if err != nil {
			return nil, err
		}
		if n >= len(rows) {
			rows = nil
		} else {
			rows = rows[n:]
		}
	}
	if sel.Limit != nil {
		n, err := constCount(sel.Limit, "LIMIT", params)
		if err != nil {
			return nil, err
		}
		if n < len(rows) {
			rows = rows[:n]
		}
	}
	return rows, nil
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

// sortOrder returns the order ORDER BY puts n rows in, as a permutation of
// their ordinals. keys holds the rows' len(order) sort keys, row after
// row. NULLs sort first ascending and last descending; rows that tie on
// every key keep their ordinal order, which makes the sort stable without
// a stable algorithm. Sorting 4-byte ordinals moves no pointers, so the
// garbage collector's write barrier stays out of the swaps.
func sortOrder(keys []Value, order []OrderItem) ([]int32, error) {
	nk := len(order)
	perm := make([]int32, len(keys)/nk)
	for i := range perm {
		perm[i] = int32(i)
	}
	var sortErr error
	slices.SortFunc(perm, func(a, b int32) int {
		ka, kb := keys[int(a)*nk:], keys[int(b)*nk:]
		for j := range order {
			c, err := compareSortKeys(&ka[j], &kb[j])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c == 0 {
				continue
			}
			if order[j].Desc {
				return -c
			}
			return c
		}
		return cmp.Compare(a, b)
	})
	return perm, sortErr
}

// compareSortKeys is Compare with NULL ordered before every value.
func compareSortKeys(a, b *Value) (int, error) {
	switch {
	case a.T == TNull && b.T == TNull:
		return 0, nil
	case a.T == TNull:
		return -1, nil
	case b.T == TNull:
		return 1, nil
	case a.T == TString && b.T == TString:
		return strings.Compare(a.S, b.S), nil
	}
	return Compare(*a, *b)
}

// --- DML execution ---
//
// Writes run in three phases so no expression evaluates under a table
// latch (a subquery in a WHERE or SET re-enters the scan path):
//
//  1. snapshot: collect target rows and their visible values under the
//     shared latch;
//  2. evaluate: run WHERE/SET/VALUES expressions latch-free against the
//     snapshot copies;
//  3. apply: under the exclusive latch, writeCheck each target
//     (first-committer-wins conflict detection), check uniqueness, and
//     link pending versions into the chains.
//
// A row changed between snapshot and apply fails writeCheck and
// surfaces as a retryable serialization conflict.

func (vw view) execInsert(tx *txnState, ins *InsertStmt, params []Value) (*Result, error) {
	dp, err := vw.planInsert(ins, params)
	if err != nil {
		return nil, err
	}
	vw.planned(dp)
	t := dp.t
	cols := ins.Columns
	colPos := make([]int, 0, len(t.Columns))
	if len(cols) == 0 {
		for i := range t.Columns {
			colPos = append(colPos, i)
		}
	} else {
		seen := map[int]bool{}
		for _, c := range cols {
			p := t.colIndex(c)
			if p < 0 {
				return nil, errUndefinedColumn(c)
			}
			if seen[p] {
				return nil, errSyntax("column %q specified twice", c)
			}
			seen[p] = true
			colPos = append(colPos, p)
		}
	}
	env := &evalEnv{params: params, vw: &vw, subs: dp.subs}
	// Phase 2 (evaluate) runs first for INSERT: there are no targets to
	// snapshot, and evaluating every row before the latch keeps the
	// apply phase latch-free of expressions.
	planned := make([][]Value, 0, len(ins.Rows))
	for _, rowExprs := range ins.Rows {
		if len(rowExprs) != len(colPos) {
			return nil, &Error{Code: CodeCardinality,
				Message: fmt.Sprintf("INSERT has %d values for %d columns",
					len(rowExprs), len(colPos))}
		}
		vals := make([]Value, len(t.Columns))
		provided := make([]bool, len(t.Columns))
		for i, e := range rowExprs {
			if err := bindExpr(e, env); err != nil {
				return nil, err
			}
			v, err := eval(e, env)
			if err != nil {
				return nil, err
			}
			cv, err := coerceToColumn(v, t.Columns[colPos[i]].Type)
			if err != nil {
				return nil, err
			}
			vals[colPos[i]] = cv
			provided[colPos[i]] = true
		}
		for i := range t.Columns {
			if !provided[i] {
				if t.Columns[i].HasDefault {
					vals[i] = t.Columns[i].Default
				} else {
					vals[i] = Null
				}
			}
			if t.Columns[i].NotNull && vals[i].IsNull() {
				return nil, &Error{Code: CodeNotNullViolation,
					Message: fmt.Sprintf("null value in column %q violates NOT NULL",
						t.Columns[i].Name)}
			}
		}
		planned = append(planned, vals)
	}
	// Phase 3: apply.
	res := &Result{}
	applyStart := vw.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, vals := range planned {
		for _, ix := range t.indexes {
			if !ix.Unique {
				continue
			}
			if err := t.checkUnique(ix, vals[ix.colPos], 0, tx.txn); err != nil {
				return nil, err
			}
		}
		row := t.appendRow(vals, tx.txn)
		tx.record(t, row, row.head, nil)
		res.RowsAffected++
		res.LastInsertID = row.id
	}
	t.rowsInserted.Add(res.RowsAffected)
	dp.stat.done(applyStart, 0, int(res.RowsAffected))
	return res, nil
}

func (vw view) execUpdate(tx *txnState, up *UpdateStmt, params []Value) (*Result, error) {
	dp, err := vw.planWrite(up, up.Table, up.Alias, up.Where, params)
	if err != nil {
		return nil, err
	}
	vw.planned(dp)
	t := dp.t
	env := &evalEnv{cols: dp.scan.cols, params: params, vw: &vw, subs: dp.subs}
	if up.Where != nil {
		if err := bindExpr(up.Where, env); err != nil {
			return nil, err
		}
	}
	setPos := make([]int, len(up.Set))
	for i, sc := range up.Set {
		p := t.colIndex(sc.Column)
		if p < 0 {
			return nil, errUndefinedColumn(sc.Column)
		}
		setPos[i] = p
		if err := bindExpr(sc.Value, env); err != nil {
			return nil, err
		}
	}
	// Phases 1+2: snapshot targets, then evaluate WHERE and SET latch-free.
	type plannedUpdate struct {
		row  *storedRow
		vals []Value
	}
	var plan []plannedUpdate
	targets, rows := vw.scanRows(dp.scan, true)
	for i, cur := range targets {
		env.row = cur
		if up.Where != nil {
			v, err := eval(up.Where, env)
			if err != nil {
				return nil, err
			}
			truth, known := v.Truth()
			if !known || !truth {
				continue
			}
		}
		newVals := append([]Value(nil), cur...)
		for i, sc := range up.Set {
			v, err := eval(sc.Value, env)
			if err != nil {
				return nil, err
			}
			cv, err := coerceToColumn(v, t.Columns[setPos[i]].Type)
			if err != nil {
				return nil, err
			}
			if t.Columns[setPos[i]].NotNull && cv.IsNull() {
				return nil, &Error{Code: CodeNotNullViolation,
					Message: fmt.Sprintf("null value in column %q violates NOT NULL",
						t.Columns[setPos[i]].Name)}
			}
			newVals[setPos[i]] = cv
		}
		plan = append(plan, plannedUpdate{row: rows[i], vals: newVals})
	}
	dp.filter.note(len(targets), len(plan))
	// Phase 3: apply.
	res := &Result{}
	applyStart := vw.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range plan {
		cur, err := t.writeCheck(p.row, tx.txn, vw.snap)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			continue // no longer a target (e.g. deleted by this txn)
		}
		for _, ix := range t.indexes {
			if !ix.Unique {
				continue
			}
			if IdentityEqual(p.vals[ix.colPos], cur.vals[ix.colPos]) {
				continue // key unchanged; the row keeps its own claim
			}
			if err := t.checkUnique(ix, p.vals[ix.colPos], p.row.id, tx.txn); err != nil {
				return nil, err
			}
		}
		nv := &rowVersion{vals: p.vals, prev: p.row.head}
		nv.meta.InitPending(tx.txn)
		cur.meta.SetDeleter(tx.txn)
		p.row.head = nv
		for _, ix := range t.indexes {
			ix.addVersion(p.row.id, nv)
		}
		tx.record(t, p.row, nv, cur)
		res.RowsAffected++
	}
	t.rowsUpdated.Add(res.RowsAffected)
	dp.stat.done(applyStart, 0, int(res.RowsAffected))
	return res, nil
}

func (vw view) execDelete(tx *txnState, del *DeleteStmt, params []Value) (*Result, error) {
	dp, err := vw.planWrite(del, del.Table, del.Alias, del.Where, params)
	if err != nil {
		return nil, err
	}
	vw.planned(dp)
	t := dp.t
	env := &evalEnv{cols: dp.scan.cols, params: params, vw: &vw, subs: dp.subs}
	if del.Where != nil {
		if err := bindExpr(del.Where, env); err != nil {
			return nil, err
		}
	}
	var rows []*storedRow
	targets, cands := vw.scanRows(dp.scan, true)
	for i, cur := range targets {
		if del.Where != nil {
			env.row = cur
			v, err := eval(del.Where, env)
			if err != nil {
				return nil, err
			}
			truth, known := v.Truth()
			if !known || !truth {
				continue
			}
		}
		rows = append(rows, cands[i])
	}
	dp.filter.note(len(targets), len(rows))
	res := &Result{}
	applyStart := vw.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, row := range rows {
		cur, err := t.writeCheck(row, tx.txn, vw.snap)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			continue
		}
		cur.meta.SetDeleter(tx.txn)
		tx.record(t, row, nil, cur)
		res.RowsAffected++
	}
	t.rowsDeleted.Add(res.RowsAffected)
	dp.stat.done(applyStart, 0, int(res.RowsAffected))
	return res, nil
}

// --- DDL execution ---
//
// DDL runs under the exclusive catalog lock and is not snapshot
// isolated: catalog changes are visible to every session immediately
// and are undone structurally on rollback. Statements that rewrite row
// storage (ALTER TABLE) or retire it (DROP TABLE) additionally require
// that no other transaction holds pending versions on the table,
// surfacing a retryable conflict otherwise — a committed version chain
// can be rewritten in place, but an uncommitted writer's versions
// cannot be restitched safely.

// guardPending enforces the rule above. Caller holds t.mu exclusively.
func guardPending(t *Table, tx *txnState, what string) error {
	var own int64
	if tx != nil {
		own = tx.pendingOn(t)
	}
	if t.pending.Load() != own {
		return errConflict(fmt.Sprintf(
			"cannot %s table %q: concurrent transactions have uncommitted changes", what, t.Name))
	}
	return nil
}

func (db *Database) execCreateTable(tx *txnState, ct *CreateTableStmt) (*Result, error) {
	key := strings.ToLower(ct.Table)
	if _, exists := db.tables[key]; exists {
		if ct.IfNotExists {
			return &Result{}, nil
		}
		return nil, &Error{Code: CodeDuplicateTable,
			Message: fmt.Sprintf("table %q already exists", ct.Table)}
	}
	t := &Table{Name: ct.Table, byID: map[int64]*storedRow{}}
	seen := map[string]bool{}
	var pkCol string
	for _, cd := range ct.Columns {
		lc := strings.ToLower(cd.Name)
		if seen[lc] {
			return nil, errSyntax("duplicate column name %q", cd.Name)
		}
		seen[lc] = true
		col := Column{Name: cd.Name, Type: cd.Type, NotNull: cd.NotNull, PrimaryKey: cd.PrimaryKey}
		if cd.Default != nil {
			v, err := eval(cd.Default, &evalEnv{})
			if err != nil {
				return nil, err
			}
			cv, err := coerceToColumn(v, cd.Type)
			if err != nil {
				return nil, err
			}
			col.Default = cv
			col.HasDefault = true
		}
		if cd.PrimaryKey {
			if pkCol != "" {
				return nil, errSyntax("multiple PRIMARY KEY columns are not supported")
			}
			pkCol = cd.Name
		}
		t.Columns = append(t.Columns, col)
	}
	db.tables[key] = t
	tx.logDDL(undoRec{kind: undoCreateTable, table: t.Name})
	if pkCol != "" {
		ixName := strings.ToLower(ct.Table) + "_pkey"
		ix, err := buildIndex(t, ixName, pkCol, true)
		if err != nil {
			return nil, err
		}
		t.indexes = append(t.indexes, ix)
		db.indexes[strings.ToLower(ixName)] = ix
		tx.logDDL(undoRec{kind: undoCreateIndex, index: ixName})
	}
	return &Result{}, nil
}

func (db *Database) execDropTable(tx *txnState, dt *DropTableStmt) (*Result, error) {
	key := strings.ToLower(dt.Table)
	t, exists := db.tables[key]
	if !exists {
		if dt.IfExists {
			return &Result{}, nil
		}
		return nil, errUndefinedTable(dt.Table)
	}
	t.mu.Lock()
	err := guardPending(t, tx, "drop")
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var dropped []*Index
	for name, ix := range db.indexes {
		if strings.EqualFold(ix.Table, t.Name) {
			dropped = append(dropped, ix)
			delete(db.indexes, name)
		}
	}
	delete(db.tables, key)
	tx.logDDL(undoRec{kind: undoDropTable, table: t.Name, droppedTable: t, droppedIndexes: dropped})
	return &Result{}, nil
}

func (db *Database) execCreateIndex(tx *txnState, ci *CreateIndexStmt) (*Result, error) {
	key := strings.ToLower(ci.Name)
	if _, exists := db.indexes[key]; exists {
		return nil, &Error{Code: CodeDuplicateIndex,
			Message: fmt.Sprintf("index %q already exists", ci.Name)}
	}
	t, err := db.table(ci.Table)
	if err != nil {
		return nil, err
	}
	// The exclusive latch keeps a racing commit's chain cleanup out of
	// the build.
	t.mu.Lock()
	ix, err := buildIndex(t, ci.Name, ci.Column, ci.Unique)
	if err == nil {
		t.indexes = append(t.indexes, ix)
	}
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	db.indexes[key] = ix
	tx.logDDL(undoRec{kind: undoCreateIndex, index: ci.Name})
	// Index DDL never changes results (no vt bump) but does change access
	// paths, which cached plans' cost decisions depend on.
	db.bumpSchema(ci.Table)
	return &Result{}, nil
}

func (db *Database) execDropIndex(tx *txnState, di *DropIndexStmt) (*Result, error) {
	key := strings.ToLower(di.Name)
	ix, exists := db.indexes[key]
	if !exists {
		if di.IfExists {
			return &Result{}, nil
		}
		return nil, &Error{Code: CodeUndefinedIndex,
			Message: fmt.Sprintf("index %q does not exist", di.Name)}
	}
	delete(db.indexes, key)
	if t, err := db.table(ix.Table); err == nil {
		t.mu.Lock()
		for i, tix := range t.indexes {
			if tix == ix {
				t.indexes = append(t.indexes[:i:i], t.indexes[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
	}
	tx.logDDL(undoRec{kind: undoDropIndex, index: ix.Name, droppedIndex: ix})
	db.bumpSchema(ix.Table)
	return &Result{}, nil
}
