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

// scanTable produces the rowSet for one base table, optionally routed
// through an index when the WHERE clause has a usable predicate. `where`
// may be nil. The full WHERE clause is always re-applied by the caller;
// index routing is purely a row-set reduction. Rows resolve against the
// view's snapshot under a shared table latch held only for the scan —
// the returned value slices are immutable once committed, so evaluation
// proceeds latch-free.
func (vw view) scanTable(name, alias string, where Expr, params []Value, site any) (*rowSet, error) {
	t, err := vw.db.table(name)
	if err != nil {
		return nil, err
	}
	qual := strings.ToLower(alias)
	if qual == "" {
		qual = strings.ToLower(t.Name)
	}
	rs := &rowSet{}
	for _, c := range t.Columns {
		rs.cols = append(rs.cols, envCol{tbl: qual, name: strings.ToLower(c.Name)})
	}
	start := vw.trk.now()
	t.mu.RLock()
	cands, plan := vw.candidateRows(t, qual, where, params)
	rs.rows = make([][]Value, 0, len(cands))
	for _, r := range cands {
		if v := r.visibleVersion(vw.txn, vw.snap); v != nil {
			rs.rows = append(rs.rows, v.vals)
		}
	}
	t.mu.RUnlock()
	noteScan(t, plan, len(rs.rows))
	vw.trk.scan(site, plan, len(cands), len(rs.rows), start)
	return rs, nil
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

// candidateRows picks between a full heap scan and an index scan based
// on top-level AND conjuncts of the WHERE clause. Returned rows are in
// row-ID order so results stay deterministic; they are candidates only
// (index postings are a multiset over versions), so the caller must
// resolve snapshot visibility and re-apply the WHERE clause. The second
// return is the access-path decision (nil = sequential scan), which
// EXPLAIN renders and the tracker records. Caller holds the table latch.
func (vw view) candidateRows(t *Table, qual string, where Expr, params []Value) ([]*storedRow, *indexScanPlan) {
	if p := vw.planScanAccess(t, qual, where, params); p != nil {
		return t.runIndexScan(p), p
	}
	return t.rows, nil
}

// planScanAccess decides the access path for scanning t under the given
// WHERE clause. With the cost-based planner on, every conjunct an index
// can satisfy becomes a candidate and the one expected to examine the
// fewest rows wins; with it off, the legacy first-match rule applies.
// Pure planning — no tree reads — so EXPLAIN (without ANALYZE) calls it
// too. Caller holds db.mu at least shared (DDL excluded).
func (vw view) planScanAccess(t *Table, qual string, where Expr, params []Value) *indexScanPlan {
	if where == nil || vw.db.noIndexScan {
		return nil
	}
	if vw.db.noPlanner {
		for _, conj := range andConjuncts(where) {
			if p := planIndexScan(t, qual, conj, params); p != nil {
				return p
			}
		}
		return nil
	}
	var best *indexScanPlan
	var bestRows float64
	for _, conj := range andConjuncts(where) {
		p := planIndexScan(t, qual, conj, params)
		if p == nil {
			continue
		}
		if rows := planEstRows(t, p); best == nil || rows < bestRows {
			best, bestRows = p, rows
		}
	}
	return best
}

// andConjuncts flattens a chain of top-level ANDs.
func andConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(andConjuncts(b.L), andConjuncts(b.R)...)
	}
	return []Expr{e}
}

// constValue evaluates e if it references no columns or aggregates.
func constValue(e Expr, params []Value) (Value, bool) {
	ok := true
	walkExpr(e, func(x Expr) bool {
		switch x.(type) {
		case *ColumnRef:
			ok = false
			return false
		case *FuncCall:
			if isAggregate(x.(*FuncCall).Name) {
				ok = false
				return false
			}
		}
		return true
	})
	if !ok {
		return Null, false
	}
	env := &evalEnv{params: params}
	v, err := eval(e, env)
	if err != nil {
		return Null, false
	}
	return v, true
}

// columnForQual returns the table column position when c refers to table t
// (by the scan qualifier), or -1.
func columnForQual(t *Table, qual string, c *ColumnRef) int {
	if c.Table != "" && strings.ToLower(c.Table) != qual {
		return -1
	}
	return t.colIndex(c.Column)
}

// indexScanPlan is one resolved access-path decision: which index serves
// which conjunct, with the comparison key already coerced to the column
// type. Planning (shape matching) is separated from running (tree reads)
// so EXPLAIN can show the decision without touching the data.
type indexScanPlan struct {
	ix     *Index
	op     string // "=", "<", "<=", ">", ">=", or "like"
	key    Value  // comparison key for "=" and range ops
	prefix string // literal prefix for "like"
	conj   Expr   // the WHERE conjunct the index satisfies
}

// planIndexScan attempts to satisfy one conjunct with an index. Supported
// shapes: col = const, const = col, col LIKE 'prefix%', and col range
// comparisons against constants. Returns nil when no index applies.
func planIndexScan(t *Table, qual string, conj Expr, params []Value) *indexScanPlan {
	switch x := conj.(type) {
	case *Binary:
		if x.Op == "=" {
			for _, side := range [2]struct{ col, val Expr }{{x.L, x.R}, {x.R, x.L}} {
				c, ok := side.col.(*ColumnRef)
				if !ok {
					continue
				}
				pos := columnForQual(t, qual, c)
				if pos < 0 {
					continue
				}
				v, ok := constValue(side.val, params)
				if !ok || v.IsNull() {
					continue
				}
				ix := t.indexOn(pos)
				if ix == nil {
					continue
				}
				key, err := coerceToColumn(v, t.Columns[pos].Type)
				if err != nil {
					return nil
				}
				return &indexScanPlan{ix: ix, op: "=", key: key, conj: conj}
			}
			return nil
		}
		if x.Op == "<" || x.Op == "<=" || x.Op == ">" || x.Op == ">=" {
			c, ok := x.L.(*ColumnRef)
			op := x.Op
			rhs := x.R
			if !ok {
				// const OP col → flip
				if c2, ok2 := x.R.(*ColumnRef); ok2 {
					c = c2
					rhs = x.L
					switch x.Op {
					case "<":
						op = ">"
					case "<=":
						op = ">="
					case ">":
						op = "<"
					case ">=":
						op = "<="
					}
				} else {
					return nil
				}
			}
			pos := columnForQual(t, qual, c)
			if pos < 0 {
				return nil
			}
			v, ok := constValue(rhs, params)
			if !ok || v.IsNull() {
				return nil
			}
			ix := t.indexOn(pos)
			if ix == nil {
				return nil
			}
			key, err := coerceToColumn(v, t.Columns[pos].Type)
			if err != nil {
				return nil
			}
			return &indexScanPlan{ix: ix, op: op, key: key, conj: conj}
		}
	case *LikeExpr:
		if x.Not || x.Escape != nil {
			return nil
		}
		c, ok := x.X.(*ColumnRef)
		if !ok {
			return nil
		}
		pos := columnForQual(t, qual, c)
		if pos < 0 || t.Columns[pos].Type != TString {
			return nil
		}
		pv, ok := constValue(x.Pattern, params)
		if !ok || pv.IsNull() {
			return nil
		}
		prefix, ok := x.program(pv.String(), "", false).prefix()
		if !ok {
			return nil
		}
		ix := t.indexOn(pos)
		if ix == nil {
			return nil
		}
		return &indexScanPlan{ix: ix, op: "like", prefix: prefix, conj: conj}
	}
	return nil
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

// joinOn performs an INNER or LEFT join of a with b on cond. LEFT join
// emits a NULL-padded row for unmatched left rows.
func (vw view) joinOn(a, b *rowSet, cond Expr, kind JoinKind, params []Value) (*rowSet, error) {
	out := &rowSet{cols: append(append([]envCol{}, a.cols...), b.cols...)}
	env := &evalEnv{cols: out.cols, params: params, vw: &vw, subCache: map[*Subquery][][]Value{}}
	if cond != nil {
		if err := bindExpr(cond, env); err != nil {
			return nil, err
		}
	}
	nullPad := make([]Value, len(b.cols))
	for _, ra := range a.rows {
		matched := false
		for _, rb := range b.rows {
			row := make([]Value, 0, len(ra)+len(rb))
			row = append(row, ra...)
			row = append(row, rb...)
			if cond != nil {
				env.row = row
				v, err := eval(cond, env)
				if err != nil {
					return nil, err
				}
				truth, known := v.Truth()
				if !known || !truth {
					continue
				}
			}
			matched = true
			out.rows = append(out.rows, row)
		}
		if kind == JoinLeft && !matched {
			row := make([]Value, 0, len(ra)+len(nullPad))
			row = append(row, ra...)
			row = append(row, nullPad...)
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// derivedRowSet materialises a derived table (FROM subquery) under its
// alias.
func (vw view) derivedRowSet(sub *SelectStmt, alias string, params []Value, site any) (*rowSet, error) {
	start := vw.trk.now()
	res, err := vw.execSelect(sub, params)
	if err != nil {
		return nil, err
	}
	rs := &rowSet{rows: res.Rows}
	qual := strings.ToLower(alias)
	for _, c := range res.Columns {
		rs.cols = append(rs.cols, envCol{tbl: qual, name: strings.ToLower(c)})
	}
	vw.trk.scan(site, nil, len(rs.rows), len(rs.rows), start)
	return rs, nil
}

// buildFrom assembles the full FROM row set (joins + comma cross joins)
// and returns the residual WHERE clause the caller must still apply —
// sel.Where on the legacy path, or what's left after the planner pushed
// conjuncts below the joins. `where` enables index routing only for the
// single-base-table case. Tracker sites are addresses into sel's From
// slice: execUnion's head copy shares that backing array with the
// original statement, so the events land on the nodes the plan renderer
// keyed.
func (vw view) buildFrom(sel *SelectStmt, params []Value) (*rowSet, Expr, error) {
	if len(sel.From) == 0 {
		// SELECT without FROM evaluates expressions over a single empty row.
		return &rowSet{rows: [][]Value{{}}}, sel.Where, nil
	}
	if fp := vw.planQuery(sel); fp != nil {
		rs, err := vw.execFromPlan(fp, params)
		return rs, fp.residual, err
	}
	singleTable := len(sel.From) == 1 && len(sel.From[0].Joins) == 0 &&
		sel.From[0].Sub == nil
	var acc *rowSet
	for i := range sel.From {
		tr := &sel.From[i]
		var where Expr
		if singleTable && i == 0 {
			where = sel.Where
		}
		var rs *rowSet
		var err error
		if tr.Sub != nil {
			rs, err = vw.derivedRowSet(tr.Sub, tr.Alias, params, tr)
		} else {
			rs, err = vw.scanTable(tr.Table, tr.Alias, where, params, tr)
		}
		if err != nil {
			return nil, nil, err
		}
		for j := range tr.Joins {
			jc := &tr.Joins[j]
			var right *rowSet
			if jc.Sub != nil {
				right, err = vw.derivedRowSet(jc.Sub, jc.Alias, params, jc)
			} else {
				right, err = vw.scanTable(jc.Table, jc.Alias, nil, params, jc)
			}
			if err != nil {
				return nil, nil, err
			}
			joinStart := vw.trk.now()
			inRows := len(rs.rows)
			if jc.Kind == JoinCross {
				rs = crossJoin(rs, right)
			} else {
				rs, err = vw.joinOn(rs, right, jc.On, jc.Kind, params)
				if err != nil {
					return nil, nil, err
				}
			}
			vw.trk.join(jc, inRows*len(right.rows), len(rs.rows), joinStart)
		}
		if acc == nil {
			acc = rs
		} else {
			acc = crossJoin(acc, rs)
		}
	}
	return acc, sel.Where, nil
}

// scanRel produces one planned relation's row set: the base-table or
// derived-table scan with this relation's pushed conjuncts applied. For
// base tables the pushed conjuncts also drive index routing; the full
// pushed filter is then re-applied (index scans over-approximate).
func (vw view) scanRel(rp *relPlan, params []Value) (*rowSet, error) {
	pushed := andJoin(rp.pushed)
	var rs *rowSet
	var err error
	if rp.sub != nil {
		rs, err = vw.derivedRowSet(rp.sub, rp.alias, params, rp.site)
	} else {
		rs, err = vw.scanTable(rp.table, rp.alias, pushed, params, rp.site)
	}
	if err != nil {
		return nil, err
	}
	if pushed == nil {
		return rs, nil
	}
	env := &evalEnv{cols: rs.cols, params: params, vw: &vw, subCache: map[*Subquery][][]Value{}}
	if err := bindExpr(pushed, env); err != nil {
		return nil, err
	}
	kept := rs.rows[:0:0]
	for _, r := range rs.rows {
		env.row = r
		v, err := eval(pushed, env)
		if err != nil {
			return nil, err
		}
		if t, known := v.Truth(); known && t {
			kept = append(kept, r)
		}
	}
	vw.trk.stage(rp.site, "pushfilter", len(rs.rows), len(kept))
	rs.rows = kept
	return rs, nil
}

// execFromPlan executes a planned FROM clause: scan each relation in
// join order (pushed filters applied at the scan), join left-deep with
// each step's conditions, then remap the layout back to declaration
// order when the planner reordered — projection, *-expansion, and
// ambiguity resolution must see the layout the statement declared.
func (vw view) execFromPlan(fp *fromPlan, params []Value) (*rowSet, error) {
	widths := make([]int, len(fp.rels))
	var acc *rowSet
	for i, rp := range fp.rels {
		rs, err := vw.scanRel(rp, params)
		if err != nil {
			return nil, err
		}
		widths[i] = len(rs.cols)
		if i == 0 {
			acc = rs
			continue
		}
		cond := andJoin(fp.steps[i])
		start := vw.trk.now()
		examined := len(acc.rows) * len(rs.rows)
		if cond == nil {
			acc = crossJoin(acc, rs)
		} else {
			acc, err = vw.joinOn(acc, rs, cond, JoinInner, params)
			if err != nil {
				return nil, err
			}
		}
		vw.trk.pjoin(rp.site, examined, len(acc.rows), start)
	}
	if !fp.reordered {
		return acc, nil
	}
	type block struct{ off, w int }
	blocks := make([]block, len(fp.rels)) // indexed by declaration position
	off := 0
	for i, rp := range fp.rels {
		blocks[rp.declIdx] = block{off: off, w: widths[i]}
		off += widths[i]
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

// execSelect dispatches between a single SELECT and a UNION chain.
func (vw view) execSelect(sel *SelectStmt, params []Value) (*Result, error) {
	if len(sel.Unions) == 0 {
		return vw.execSelectSingle(sel, params)
	}
	return vw.execUnion(sel, params)
}

func (vw view) execSelectSingle(sel *SelectStmt, params []Value) (*Result, error) {
	selStart := vw.trk.now()
	from, residual, err := vw.buildFrom(sel, params)
	if err != nil {
		return nil, err
	}
	subCache := map[*Subquery][][]Value{}
	env := &evalEnv{cols: from.cols, params: params, vw: &vw, subCache: subCache}

	// WHERE filter. When the planner engaged, conjuncts it pushed into
	// scans or join steps are gone already; residual holds what is left.
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
		vw.trk.stage(sel, "where", len(from.rows), len(rows))
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
		vw.trk.stage(sel, "aggregate", len(rows), len(outs))
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
		vw.trk.stage(sel, "distinct", len(res.Rows), len(kept))
		res.Rows = kept
	}

	// LIMIT / OFFSET.
	preLimit := len(res.Rows)
	if sel.Offset != nil {
		v, ok := constValue(sel.Offset, params)
		if !ok {
			return nil, errSyntax("OFFSET must be a constant expression")
		}
		n, ok := v.AsInt()
		if !ok || n < 0 {
			return nil, errSyntax("OFFSET must be a non-negative integer")
		}
		if int(n) >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[n:]
		}
	}
	if sel.Limit != nil {
		v, ok := constValue(sel.Limit, params)
		if !ok {
			return nil, errSyntax("LIMIT must be a constant expression")
		}
		n, ok := v.AsInt()
		if !ok || n < 0 {
			return nil, errSyntax("LIMIT must be a non-negative integer")
		}
		if int(n) < len(res.Rows) {
			res.Rows = res.Rows[:n]
		}
	}
	if sel.Limit != nil || sel.Offset != nil {
		vw.trk.stage(sel, "limit", preLimit, len(res.Rows))
	}
	vw.trk.sel(sel, len(res.Rows), selStart)
	res.RowsAffected = int64(len(res.Rows))
	return res, nil
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
	t, err := vw.db.table(ins.Table)
	if err != nil {
		return nil, err
	}
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
	env := &evalEnv{params: params, vw: &vw, subCache: map[*Subquery][][]Value{}}
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
	applyStart := vw.trk.now()
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
	vw.trk.dml(ins, int(res.RowsAffected), applyStart)
	return res, nil
}

// dmlTarget is one snapshot-phase target: a row and the version its
// values were read from.
type dmlTarget struct {
	row  *storedRow
	vals []Value
}

// snapshotTargets collects the rows visible to the view that are
// candidates for a WHERE clause, releasing the latch before any
// expression runs.
func (vw view) snapshotTargets(t *Table, qual string, where Expr, params []Value, site any) []dmlTarget {
	start := vw.trk.now()
	t.mu.RLock()
	cands, plan := vw.candidateRows(t, qual, where, params)
	targets := make([]dmlTarget, 0, len(cands))
	for _, r := range cands {
		if v := r.visibleVersion(vw.txn, vw.snap); v != nil {
			targets = append(targets, dmlTarget{row: r, vals: v.vals})
		}
	}
	t.mu.RUnlock()
	noteScan(t, plan, len(targets))
	vw.trk.scan(site, plan, len(cands), len(targets), start)
	return targets
}

func (vw view) execUpdate(tx *txnState, up *UpdateStmt, params []Value) (*Result, error) {
	t, err := vw.db.table(up.Table)
	if err != nil {
		return nil, err
	}
	qual := strings.ToLower(up.Alias)
	if qual == "" {
		qual = strings.ToLower(t.Name)
	}
	env := &evalEnv{params: params, vw: &vw, subCache: map[*Subquery][][]Value{}}
	for _, c := range t.Columns {
		env.cols = append(env.cols, envCol{tbl: qual, name: strings.ToLower(c.Name)})
	}
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
	targets := vw.snapshotTargets(t, qual, up.Where, params, up)
	for _, tgt := range targets {
		env.row = tgt.vals
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
		newVals := append([]Value(nil), tgt.vals...)
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
		plan = append(plan, plannedUpdate{row: tgt.row, vals: newVals})
	}
	vw.trk.stage(up, "filter", len(targets), len(plan))
	// Phase 3: apply.
	res := &Result{}
	applyStart := vw.trk.now()
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
	vw.trk.dml(up, int(res.RowsAffected), applyStart)
	return res, nil
}

func (vw view) execDelete(tx *txnState, del *DeleteStmt, params []Value) (*Result, error) {
	t, err := vw.db.table(del.Table)
	if err != nil {
		return nil, err
	}
	qual := strings.ToLower(del.Alias)
	if qual == "" {
		qual = strings.ToLower(t.Name)
	}
	env := &evalEnv{params: params, vw: &vw, subCache: map[*Subquery][][]Value{}}
	for _, c := range t.Columns {
		env.cols = append(env.cols, envCol{tbl: qual, name: strings.ToLower(c.Name)})
	}
	if del.Where != nil {
		if err := bindExpr(del.Where, env); err != nil {
			return nil, err
		}
	}
	var rows []*storedRow
	targets := vw.snapshotTargets(t, qual, del.Where, params, del)
	for _, tgt := range targets {
		if del.Where != nil {
			env.row = tgt.vals
			v, err := eval(del.Where, env)
			if err != nil {
				return nil, err
			}
			truth, known := v.Truth()
			if !known || !truth {
				continue
			}
		}
		rows = append(rows, tgt.row)
	}
	vw.trk.stage(del, "filter", len(targets), len(rows))
	res := &Result{}
	applyStart := vw.trk.now()
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
	vw.trk.dml(del, int(res.RowsAffected), applyStart)
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
