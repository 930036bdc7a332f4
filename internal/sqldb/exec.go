package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// Result is the outcome of executing one statement. SELECT fills Columns
// and Rows; DML fills RowsAffected (and LastInsertID for single-row
// INSERT). Results are fully materialised: the engine evaluates the query
// under the database lock and hands the caller an immutable snapshot,
// whose rows the caller reads whole (the %ROW block walks them
// row-at-a-time).
//
// The rows of a Result are read-only and may share storage with the
// table: a SELECT that only lists adjacent columns (SELECT *, SELECT url,
// title) hands out the stored rows themselves, which no later statement
// writes to — an UPDATE links a new version. Writing to a cell writes to the
// table under every snapshot; copy a row before changing it.
type Result struct {
	Columns      []string
	Rows         [][]Value
	RowsAffected int64
	LastInsertID int64
}

// --- row source assembly ---

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
	var ids []int64
	n := len(t.rows)
	if rp.access != nil {
		ids = t.runIndexScan(rp.access)
		n = len(ids)
	}
	vals = make([][]Value, 0, n)
	if keepRows {
		rows = make([]*storedRow, 0, n)
	}
	cands := 0
	visit := func(r *storedRow) {
		cands++
		if v := r.visibleVersion(vw.txn, vw.snap); v != nil {
			vals = append(vals, v.vals)
			if keepRows {
				rows = append(rows, r)
			}
		}
	}
	if rp.access == nil {
		for _, r := range t.rows {
			visit(r)
		}
	}
	last := int64(-1)
	for _, id := range ids {
		if id == last {
			continue
		}
		last = id
		if r, ok := t.byID[id]; ok {
			visit(r)
		}
	}
	t.mu.RUnlock()
	noteScan(t, rp.access, len(vals))
	rp.stat.done(start, cands, len(vals))
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

// appendConjuncts appends the conjuncts of e's chain of top-level ANDs to
// dst.
func appendConjuncts(dst []Expr, e Expr) []Expr {
	if e == nil {
		return dst
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return appendConjuncts(appendConjuncts(dst, b.L), b.R)
	}
	return append(dst, e)
}

// runIndexScan executes a planned index access and returns the row IDs
// it found in order. Because postings are a multiset over row versions,
// the same row ID can surface more than once, next to itself: the caller
// takes each once. Caller holds the table latch, and reads the IDs under
// it: they may be the index's own.
func (t *Table) runIndexScan(p *indexScanPlan) []int64 {
	var ids []int64
	gather := func(_ Value, post []int64) bool {
		ids = append(ids, post...)
		return true
	}
	switch p.op {
	case "=":
		// The key's posting list itself where it is in order; a copy to
		// sort where an update appended a row out of order.
		if ids = p.ix.tree.lookup(p.key); !slices.IsSorted(ids) {
			ids = slices.Clone(ids)
		}
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
	if !slices.IsSorted(ids) {
		slices.Sort(ids)
	}
	return ids
}

// scanRel produces one planned relation's rows: the base-table scan
// through its access path, with the conjuncts the planner pushed to this
// relation applied.
func (vw view) scanRel(rp *relPlan) ([][]Value, error) {
	rows, _ := vw.scanRows(rp, false)
	if rp.filter == nil {
		return rows, nil
	}
	kept, err := filterRows(rows, rp.pred, rp.predErr)
	rp.pushStat.note(len(rows), len(kept))
	return kept, err
}

// filterRows returns the rows pred holds on, in rows' own array: every
// stage's input is its alone. bindErr is the reference in the predicate
// that did not resolve, raised before any row is looked at.
func filterRows(rows [][]Value, pred predFn, bindErr error) ([][]Value, error) {
	if bindErr != nil {
		return nil, bindErr
	}
	kept := rows[:0]
	for _, r := range rows {
		t, err := pred(r)
		if err != nil {
			return nil, err
		}
		if t == triTrue {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

// execFromNode runs one node of the FROM tree, a scan or a join, and
// returns its rows: a join's in an arena, for the join above it to read.
func (vw view) execFromNode(n fromNode) ([][]Value, error) {
	jp, ok := n.(*joinPlan)
	if !ok {
		return vw.scanRel(n.(*relPlan))
	}
	var rows [][]Value
	var arena rowArena
	err := vw.execJoin(jp, func(r []Value) { rows = append(rows, arena.keep(r)) })
	return rows, err
}

// execJoin runs a join node: its two inputs, left first, then the join by
// the method on the node, each row it yields handed to emit.
func (vw view) execJoin(jp *joinPlan, emit func(row []Value)) error {
	left, err := vw.execFromNode(jp.left)
	if err != nil {
		return err
	}
	right, err := vw.execFromNode(jp.right)
	if err != nil {
		return err
	}
	start := vw.clock()
	examined, returned, err := joinOn(left, right, jp, emit)
	if err != nil {
		return err
	}
	jp.stat.done(start, examined, returned)
	return nil
}

// execFromPlan executes a planned FROM clause — the only way a FROM
// clause runs — and hands each of its rows to st, in order, with the
// columns in declaration order where the planner reordered: the stages
// above were compiled against the layout the statement declared. A scan's
// rows are the table's own and go as they are, and the scan's array is
// st's to keep them in; the rows of the join at the top go as the join's
// scratch row, which is copied only where a stage keeps one.
func (vw view) execFromPlan(fp *fromPlan, st *selectRows) error {
	jp, ok := fp.root.(*joinPlan)
	if !ok {
		rows, err := vw.scanRel(fp.root.(*relPlan))
		if err != nil {
			return err
		}
		st.rows = rows[:0] // add appends behind the row it is given
		for _, r := range rows {
			st.add(r, true)
		}
		return nil
	}
	emit := func(r []Value) { st.add(r, false) }
	if fp.reordered {
		decl := make([]Value, len(fp.remap))
		emit = func(r []Value) {
			for i, from := range fp.remap {
				decl[i] = r[from]
			}
			st.add(decl, false)
		}
	}
	return vw.execJoin(jp, emit)
}

// --- SELECT execution ---

// expandProjection resolves *, t.*, and expression items into the output
// columns against the FROM layout: their names, and for each either the
// slot it copies (proj) or the expression still to compile (exprs, nil
// altogether for a bare *).
func (vw view) expandProjection(sel *SelectStmt, cols []envCol) (names []string, proj []rowExpr, exprs []Expr, err error) {
	addStarFor := func(qual string) error {
		matched := false
		for i, ec := range cols {
			if qual != "" && ec.tbl != qual {
				continue
			}
			matched = true
			names = append(names, vw.displayColumnName(ec))
			proj = append(proj, rowExpr{slot: i})
			if exprs != nil {
				exprs = append(exprs, nil)
			}
		}
		if qual != "" && !matched {
			return errUndefinedTable(qual)
		}
		return nil
	}
	if sel.Star {
		names, proj = make([]string, 0, len(cols)), make([]rowExpr, 0, len(cols))
		return names, proj, nil, addStarFor("")
	}
	n := len(sel.Items)
	names, proj, exprs = make([]string, 0, n), make([]rowExpr, 0, n), make([]Expr, 0, n)
	for i, item := range sel.Items {
		if item.TableStar != "" {
			if err := addStarFor(strings.ToLower(item.TableStar)); err != nil {
				return nil, nil, nil, err
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
		names = append(names, name)
		proj = append(proj, rowExpr{})
		exprs = append(exprs, item.Expr)
	}
	return names, proj, exprs, nil
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

// execSelect drives the compiled stages of a planned SELECT.
func (vw view) execSelect(sp *selectPlan) (*Result, error) {
	selStart := vw.clock()
	st := selectRows{sp: sp}
	if sp.grouped {
		st.groups.open(sp)
	}
	if sp.from == nil {
		// SELECT without FROM evaluates expressions over a single empty row.
		st.add([]Value{}, true)
	} else if err := vw.execFromPlan(sp.from, &st); err != nil {
		return nil, err
	}
	if err := st.finish(); err != nil {
		return nil, err
	}

	// The rows that reach ORDER BY and the projection: FROM rows, or one
	// representative row per group with its aggregate results beside it,
	// which go where the closures read them before the row is evaluated.
	outs := st.rows
	if sp.grouped {
		outs = st.groups.results()
	}

	// ORDER BY. Keys that are columns of the rows are sorted where they
	// are; any other key is evaluated for every row first.
	var perm []int32
	if nk := len(sp.order); nk > 0 && (len(outs) > 1 || slices.ContainsFunc(sp.order, rowExpr.evaluated)) {
		keys := sortKeys{nk: nk, rows: outs, slots: columnSlots(sp.order)}
		if keys.slots == nil {
			keys.flat = make([]Value, len(outs)*nk)
			for i, r := range outs {
				if sp.grouped {
					sp.aggRow = st.groups.aggRow(i)
				}
				for j, e := range sp.order {
					v, err := e.eval(r)
					if err != nil {
						return nil, err
					}
					keys.flat[i*nk+j] = v
				}
			}
		}
		var err error
		if perm, err = sortOrder(keys, sp.orderBy); err != nil {
			return nil, err
		}
	}

	// Projection, in sorted order. A projection that is a run of the rows'
	// own columns hands out that run of each row; any other is evaluated
	// into cells of one backing array.
	res := &Result{Columns: sp.names, Rows: make([][]Value, len(outs))}
	width := len(sp.proj)
	var cells []Value
	if !sp.shareRows {
		cells = make([]Value, len(res.Rows)*width)
	}
	for k := range res.Rows {
		i := k
		if perm != nil {
			i = int(perm[i])
		}
		if sp.shareRows {
			lo := sp.proj[0].slot
			res.Rows[k] = outs[i][lo : lo+width : lo+width]
			continue
		}
		if sp.grouped {
			sp.aggRow = st.groups.aggRow(i)
		}
		row := cells[k*width : (k+1)*width : (k+1)*width]
		for c, e := range sp.proj {
			v, err := e.eval(outs[i])
			if err != nil {
				return nil, err
			}
			row[c] = v
		}
		res.Rows[k] = row
	}
	sp.stat.done(selStart, 0, len(res.Rows))
	res.RowsAffected = int64(len(res.Rows))
	return res, nil
}

// selectRows takes the FROM rows of a SELECT through the stages that
// take them one at a time: the WHERE left above the FROM tree, then the
// grouping, or else the rows kept for ORDER BY and the projection. Each
// stage's error is the statement's as if the stages ran one after another
// over all the rows — the FROM clause's first, then the WHERE's, a
// reference of the stages from the projection on, the grouping's — so a
// stage that fails takes no further rows, and the FROM clause, which may
// yet fail itself, goes on.
type selectRows struct {
	sp      *selectPlan
	rows    [][]Value // ungrouped: the rows the WHERE kept
	arena   rowArena  // copies of the kept rows that were not stored
	groups  grouping  // grouped
	in, out int       // the WHERE's input and output rows
	err     error     // the WHERE's error
	aggErr  error     // the grouping's
}

// add takes one FROM row. stored says the row is storage nothing writes
// to — a table's row version — which may be kept as it is; any other row
// is valid only during the call, and is copied where it is kept.
func (st *selectRows) add(r []Value, stored bool) {
	sp := st.sp
	if st.err != nil || sp.filterErr != nil {
		return
	}
	if sp.filter != nil {
		st.in++
		t, err := sp.filter(r)
		if err != nil {
			st.err = err
			return
		}
		if t != triTrue {
			return
		}
		st.out++
	}
	switch {
	case sp.stagesErr != nil:
	case sp.grouped:
		if st.aggErr == nil {
			st.aggErr = st.groups.add(r, stored)
		}
	default:
		if !stored {
			r = st.arena.keep(r)
		}
		st.rows = append(st.rows, r)
	}
}

// finish raises the first error of the stages, and counts the WHERE's
// rows where it ran through.
func (st *selectRows) finish() error {
	sp := st.sp
	if err := firstErr(sp.filterErr, st.err); err != nil {
		return err
	}
	if sp.filter != nil {
		sp.where.note(st.in, st.out)
	}
	return firstErr(sp.stagesErr, st.aggErr)
}

// grouping is the aggregate stage of a grouped SELECT: one group per
// distinct key, in the order the groups were first met, each with its
// first row and the states of its aggregate calls. Groups are found by a
// hash of the key, each compared on the key as GROUP BY compares values
// (groupKey); nothing is built per row.
type grouping struct {
	sp     *selectPlan
	key    []Value          // the key of the row being added
	keys   []Value          // every group's key, len(key) values each
	first  map[uint64]int32 // a key's hash → the last group opened with it
	next   []int32          // next[g]: the group opened before g with its hash, -1 for none
	reps   [][]Value        // every group's first row
	states []aggState       // len(sp.aggs) per group
	arena  rowArena         // copies of the first rows that were not stored
	rows   int              // the rows added
	aggs   []Value          // results: len(sp.aggs) per group
}

// open readies g for the rows of sp.
func (g *grouping) open(sp *selectPlan) {
	g.sp, g.key = sp, make([]Value, len(sp.groupBy))
}

// add folds one row into its group, opening the group if it is the first
// of its key.
func (g *grouping) add(r []Value, stored bool) error {
	sp := g.sp
	g.rows++
	for i, e := range sp.groupBy {
		v, err := e.eval(r)
		if err != nil {
			return err
		}
		g.key[i] = groupKey(v)
	}
	grp, h := g.find()
	if grp < 0 {
		grp = int32(len(g.reps))
		if !stored {
			r = g.arena.keep(r)
		}
		g.reps = append(g.reps, r)
		g.keys = append(g.keys, g.key...)
		if len(g.key) > 0 {
			if g.first == nil {
				g.first = map[uint64]int32{}
			}
			prev, ok := g.first[h]
			if !ok {
				prev = -1
			}
			g.first[h] = grp
			g.next = append(g.next, prev)
		}
		for _, ac := range sp.aggs {
			g.states = append(g.states, aggState{fn: ac.fc.Name})
		}
	}
	states := g.states[int(grp)*len(sp.aggs):]
	for i, ac := range sp.aggs {
		var av Value
		if !ac.fc.Star {
			var err error
			if av, err = ac.arg.eval(r); err != nil {
				return err
			}
		}
		if err := states[i].add(av, ac.fc.Star); err != nil {
			return err
		}
	}
	return nil
}

// find returns the group of the current key, or -1, and the key's hash.
// Without GROUP BY every row is of the one group.
func (g *grouping) find() (int32, uint64) {
	k := len(g.key)
	if k == 0 {
		return int32(len(g.reps)) - 1, 0
	}
	h := groupHash(g.key)
	grp, ok := g.first[h]
	for ; ok && grp >= 0; grp = g.next[grp] {
		if slices.Equal(g.keys[int(grp)*k:int(grp+1)*k], g.key) {
			return grp, h
		}
	}
	return -1, h
}

// results returns every group's first row and computes, for aggRow, the
// group's aggregate results. A grouped query with no GROUP BY and no
// input rows still yields one row of aggregates over the empty set.
func (g *grouping) results() [][]Value {
	sp := g.sp
	if len(sp.groupBy) == 0 && len(g.reps) == 0 {
		g.reps = append(g.reps, make([]Value, sp.width))
		for _, ac := range sp.aggs {
			g.states = append(g.states, aggState{fn: ac.fc.Name})
		}
	}
	g.aggs = make([]Value, len(g.states))
	for i := range g.states {
		g.aggs[i] = g.states[i].result()
	}
	sp.aggregate.note(g.rows, len(g.reps))
	return g.reps
}

// aggRow returns the aggregate results of group i.
func (g *grouping) aggRow(i int) []Value {
	n := len(g.sp.aggs)
	return g.aggs[i*n : (i+1)*n : (i+1)*n]
}

// --- DML execution ---
//
// Writes run in three phases so no expression evaluates under a table
// latch:
//
//  1. snapshot: collect target rows and their visible values under the
//     shared latch;
//  2. evaluate: run the compiled WHERE/SET/VALUES expressions latch-free
//     against the snapshot copies;
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
	if dp.bindErr != nil {
		return nil, dp.bindErr
	}
	t, colPos := dp.t, dp.cols
	// Phase 2 (evaluate) runs first for INSERT: there are no targets to
	// snapshot, and evaluating every row before the latch keeps the
	// apply phase latch-free of expressions.
	planned := make([][]Value, 0, len(dp.values))
	for _, rowExprs := range dp.values {
		vals := make([]Value, len(t.Columns))
		provided := make([]bool, len(t.Columns))
		for i, e := range rowExprs {
			v, err := e.eval(nil)
			if err != nil {
				return nil, err
			}
			cv, err := CoerceToColumn(v, t.Columns[colPos[i]].Type)
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
	dp, err := vw.planWrite(up, up.Table, up.Alias, up.TableOff, up.Where, params)
	if err != nil {
		return nil, err
	}
	vw.planned(dp)
	if dp.bindErr != nil {
		return nil, dp.bindErr
	}
	t := dp.t
	// Phases 1+2: snapshot targets, then evaluate WHERE and SET latch-free.
	type plannedUpdate struct {
		row  *storedRow
		vals []Value
	}
	var plan []plannedUpdate
	targets, rows := vw.scanRows(dp.scan, true)
	for i, cur := range targets {
		if dp.where != nil {
			truth, err := dp.where(cur)
			if err != nil {
				return nil, err
			}
			if truth != triTrue {
				continue
			}
		}
		newVals := append([]Value(nil), cur...)
		for _, set := range dp.set {
			v, err := set.val.eval(cur)
			if err != nil {
				return nil, err
			}
			col := &t.Columns[set.pos]
			cv, err := CoerceToColumn(v, col.Type)
			if err != nil {
				return nil, err
			}
			if col.NotNull && cv.IsNull() {
				return nil, &Error{Code: CodeNotNullViolation,
					Message: fmt.Sprintf("null value in column %q violates NOT NULL", col.Name)}
			}
			newVals[set.pos] = cv
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
	dp, err := vw.planWrite(del, del.Table, del.Alias, del.TableOff, del.Where, params)
	if err != nil {
		return nil, err
	}
	vw.planned(dp)
	if dp.bindErr != nil {
		return nil, dp.bindErr
	}
	t := dp.t
	var rows []*storedRow
	targets, cands := vw.scanRows(dp.scan, true)
	for i, cur := range targets {
		if dp.where != nil {
			truth, err := dp.where(cur)
			if err != nil {
				return nil, err
			}
			if truth != triTrue {
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
// and are undone structurally on rollback. DROP TABLE, which retires row
// storage, additionally requires that no other transaction holds pending
// versions on the table, surfacing a retryable conflict otherwise: an
// uncommitted writer's versions would be retired under it.

// guardPending enforces the rule above. Caller holds t.mu exclusively.
func guardPending(t *Table, tx *txnState) error {
	var own int64
	if tx != nil {
		own = tx.pendingOn(t)
	}
	if t.pending.Load() != own {
		return errConflict(fmt.Sprintf(
			"cannot drop table %q: concurrent transactions have uncommitted changes", t.Name))
	}
	return nil
}

// lookupDDL makes the catalog lookups a DDL statement's execution starts
// with — what it names exists, what it creates does not — for the exec
// functions and Check alike. It returns the table the statement acts on,
// and noop when IF [NOT] EXISTS makes the statement do nothing. Caller
// holds db.mu at least shared, which keeps tables and their index lists
// still.
func (db *Database) lookupDDL(st Stmt) (t *Table, noop bool, err error) {
	switch x := st.(type) {
	case *CreateTableStmt:
		if _, noop = db.tables[strings.ToLower(x.Table)]; noop && !x.IfNotExists {
			return nil, false, errDuplicateTable(x.Table)
		}
	case *DropTableStmt:
		if t, err = db.table(x.Table); err != nil && x.IfExists {
			return nil, true, nil
		}
		err = stampOff(err, x.TableOff)
	case *CreateIndexStmt:
		if _, exists := db.indexes[strings.ToLower(x.Name)]; exists {
			return nil, false, &Error{Code: CodeDuplicateIndex, Off: x.NameOff + 1,
				Message: fmt.Sprintf("index %q already exists", x.Name)}
		}
		if t, err = db.table(x.Table); err != nil {
			return nil, false, stampOff(err, x.TableOff)
		}
		if t.colIndex(x.Column) < 0 {
			err = stampOff(errUndefinedColumn(x.Column), x.ColumnOff)
		}
	case *DropIndexStmt:
		if _, exists := db.indexes[strings.ToLower(x.Name)]; !exists && x.IfExists {
			return nil, true, nil
		} else if !exists {
			err = &Error{Code: CodeUndefinedIndex, Off: x.NameOff + 1,
				Message: fmt.Sprintf("index %q does not exist", x.Name)}
		}
	}
	return t, noop, err
}

func errDuplicateTable(name string) *Error {
	return &Error{Code: CodeDuplicateTable, Message: fmt.Sprintf("table %q already exists", name)}
}

func (db *Database) execCreateTable(tx *txnState, ct *CreateTableStmt) (*Result, error) {
	if _, noop, err := db.lookupDDL(ct); err != nil || noop {
		return ddlNoop(err)
	}
	key := strings.ToLower(ct.Table)
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
			v, err := evalConst(cd.Default, nil)
			if err != nil {
				return nil, err
			}
			cv, err := CoerceToColumn(v, cd.Type)
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
	t, noop, err := db.lookupDDL(dt)
	if err != nil || noop {
		return ddlNoop(err)
	}
	t.mu.Lock()
	err = guardPending(t, tx)
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
	delete(db.tables, strings.ToLower(t.Name))
	tx.logDDL(undoRec{kind: undoDropTable, table: t.Name, droppedTable: t, droppedIndexes: dropped})
	return &Result{}, nil
}

func (db *Database) execCreateIndex(tx *txnState, ci *CreateIndexStmt) (*Result, error) {
	t, _, err := db.lookupDDL(ci)
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
	db.indexes[strings.ToLower(ci.Name)] = ix
	tx.logDDL(undoRec{kind: undoCreateIndex, index: ci.Name})
	return &Result{}, nil
}

func (db *Database) execDropIndex(tx *txnState, di *DropIndexStmt) (*Result, error) {
	if _, noop, err := db.lookupDDL(di); err != nil || noop {
		return ddlNoop(err)
	}
	key := strings.ToLower(di.Name)
	ix := db.indexes[key]
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
	return &Result{}, nil
}

// ddlNoop is the outcome of a DDL statement that stops at lookupDDL: its
// error, or the empty result of one IF [NOT] EXISTS makes do nothing.
func ddlNoop(err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}
