package sqldb

import (
	"fmt"
	"sort"
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

// andConjuncts flattens a chain of top-level ANDs; nil has none.
func andConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(andConjuncts(b.L), andConjuncts(b.R)...)
	}
	return []Expr{e}
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
func crossJoin(a, b [][]Value) [][]Value {
	out := make([][]Value, 0, len(a)*len(b))
	for _, ra := range a {
		for _, rb := range b {
			row := make([]Value, 0, len(ra)+len(rb))
			row = append(row, ra...)
			row = append(row, rb...)
			out = append(out, row)
		}
	}
	return out
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

// execFromNode runs one node of the FROM tree: a scan, or the join of its
// two inputs, left first, by the method on the node.
func (vw view) execFromNode(n fromNode) ([][]Value, error) {
	jp, ok := n.(*joinPlan)
	if !ok {
		return vw.scanRel(n.(*relPlan))
	}
	left, err := vw.execFromNode(jp.left)
	if err != nil {
		return nil, err
	}
	right, err := vw.execFromNode(jp.right)
	if err != nil {
		return nil, err
	}
	start := vw.clock()
	var out [][]Value
	examined := len(left) * len(right)
	if jp.cond == nil && jp.kind != JoinLeft {
		out = crossJoin(left, right)
	} else if out, examined, err = joinOn(left, right, jp); err != nil {
		return nil, err
	}
	jp.stat.done(start, examined, len(out))
	return out, nil
}

// execFromPlan executes a planned FROM clause — the only way a FROM
// clause runs — then puts the columns back in declaration order when the
// planner reordered: the stages above were compiled against the layout
// the statement declared.
func (vw view) execFromPlan(fp *fromPlan) ([][]Value, error) {
	rows, err := vw.execFromNode(fp.root)
	if err != nil || !fp.reordered {
		return rows, err
	}
	out := make([][]Value, len(rows))
	for ri, r := range rows {
		nr := make([]Value, len(r))
		for i, from := range fp.remap {
			nr[i] = r[from]
		}
		out[ri] = nr
	}
	return out, nil
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
	// SELECT without FROM evaluates expressions over a single empty row.
	rows := [][]Value{{}}
	if sp.from != nil {
		var err error
		if rows, err = vw.execFromPlan(sp.from); err != nil {
			return nil, err
		}
	}

	// WHERE filter: what the planner did not push into scans or join steps.
	if sp.filter != nil || sp.filterErr != nil {
		kept, err := filterRows(rows, sp.filter, sp.filterErr)
		if err != nil {
			return nil, err
		}
		sp.where.note(len(rows), len(kept))
		rows = kept
	}
	if sp.stagesErr != nil {
		return nil, sp.stagesErr
	}

	// The rows that reach ORDER BY and the projection: FROM rows, or one
	// representative row per group with its aggregate results beside it,
	// which go where the closures read them before the row is evaluated.
	outs := rows
	var outAggs [][]Value

	if sp.grouped {
		var err error
		if outs, outAggs, err = sp.groupRows(rows); err != nil {
			return nil, err
		}
	}

	// ORDER BY. Keys that are columns of the rows are sorted where they
	// are; any other key is evaluated for every row first.
	var perm []int32
	if nk := len(sp.order); nk > 0 {
		keys := sortKeys{nk: nk, rows: outs, slots: columnSlots(sp.order)}
		if keys.slots == nil {
			keys.flat = make([]Value, len(outs)*nk)
			for i, r := range outs {
				if sp.grouped {
					sp.aggRow = outAggs[i]
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
		if perm, err = sortOrder(keys, sp.sel.OrderBy); err != nil {
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
			sp.aggRow = outAggs[i]
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

// groupRows runs the aggregate stage of a grouped SELECT: one output row
// per group — the group's first row, in the order the groups were first
// met — and beside it the group's aggregate results.
func (sp *selectPlan) groupRows(rows [][]Value) (outs, outAggs [][]Value, err error) {
	type group struct {
		rep    []Value
		states []*aggState
	}
	newGroup := func(rep []Value) *group {
		grp := &group{rep: rep, states: make([]*aggState, len(sp.aggs))}
		for i, ac := range sp.aggs {
			grp.states[i] = newAggState(ac.fc)
		}
		return grp
	}
	var order []string
	groups := map[string]*group{}
	keyVals := make([]Value, len(sp.groupBy))
	for _, r := range rows {
		for i, g := range sp.groupBy {
			v, err := g.eval(r)
			if err != nil {
				return nil, nil, err
			}
			keyVals[i] = v
		}
		k := identityKey(keyVals)
		grp, ok := groups[k]
		if !ok {
			grp = newGroup(r)
			groups[k] = grp
			order = append(order, k)
		}
		for i, ac := range sp.aggs {
			var av Value
			if !ac.fc.Star {
				var err error
				if av, err = ac.arg.eval(r); err != nil {
					return nil, nil, err
				}
			}
			if err := grp.states[i].add(av, ac.fc.Star); err != nil {
				return nil, nil, err
			}
		}
	}
	// A grouped query with no GROUP BY and no input rows still yields
	// one row of aggregates over the empty set.
	if len(sp.groupBy) == 0 && len(order) == 0 {
		groups[""] = newGroup(make([]Value, sp.width))
		order = append(order, "")
	}
	for _, k := range order {
		grp := groups[k]
		aggRow := make([]Value, len(sp.aggs))
		for i, st := range grp.states {
			aggRow[i] = st.result()
		}
		outs = append(outs, grp.rep)
		outAggs = append(outAggs, aggRow)
	}
	sp.aggregate.note(len(rows), len(outs))
	return outs, outAggs, nil
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
			cv, err := coerceToColumn(v, col.Type)
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
