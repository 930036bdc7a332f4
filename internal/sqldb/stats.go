package sqldb

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Cost-based planning over lightweight catalog statistics.
//
// Statistics come for free from structures the engine already maintains:
// table row counts extrapolate from the vacuum sweep's last exact count
// plus the insert/delete counters' drift since (estTableRows), and
// per-column distinct counts mirror each index B-tree's distinct-key
// size into an atomic (Index.distinct). Both read latch-free, so
// planning never blocks execution.
//
// planQuery plans every FROM clause (and the scan under UPDATE/DELETE)
// into the fromPlan of planner.go, and makes three decisions on the way
// (a fourth, the method of each join step, needs no statistics: join.go):
//
//   - access-path selection: planAccess scores every conjunct an
//     index can serve (planIndexScan) and picks the index expected to
//     examine the fewest rows;
//   - predicate pushdown: WHERE and inner-join ON conjuncts that mention
//     a single relation are applied at that relation's scan, below the
//     joins (attribute, whose record Check and the query cache read too);
//   - implied equality: a join conjunct equating two base columns of one
//     declared type, beside a pushed conjunct binding one of them to a
//     constant, implies the same binding of the other, which is pushed to
//     its relation too (impliedConds);
//   - join ordering: a FROM clause of base tables is joined greedily by
//     estimated cardinality, smallest first, with the output layout
//     remapped back to declaration order.
//
// The last three apply only where they cannot change the result: a FROM
// clause of two or more relations without a LEFT join. Any other keeps
// its declaration order with nothing pushed, and only a lone base table
// is routed through an index.
//
// Everything here is estimation only — correctness never depends on a
// statistic being current. A conjunct that cannot be attributed safely
// stays in the residual WHERE clause, which binds and evaluates against
// the full join layout (preserving undefined-column and ambiguity
// errors).

// estTableRows estimates t's current visible row count: the last vacuum
// sweep's exact count plus the insert/delete counter drift since. Before
// any sweep the stat fields are zero and the estimate degrades to
// inserts minus deletes, which is exact in the absence of rollbacks.
func estTableRows(t *Table) float64 {
	n := t.statRows.Load() +
		(t.rowsInserted.Load() - t.statIns.Load()) -
		(t.rowsDeleted.Load() - t.statDel.Load())
	if n < 1 {
		return 1
	}
	return float64(n)
}

// planEstRows estimates how many candidate rows the index access p would
// examine on t.
func planEstRows(t *Table, p *indexScanPlan) float64 {
	rows := estTableRows(t)
	switch p.op {
	case "=":
		if p.ix.Unique {
			return 1
		}
		d := float64(p.ix.distinct.Load())
		if d < 1 {
			d = 1
		}
		return math.Max(1, rows/d)
	case "like":
		return math.Max(1, rows/10)
	default: // range ops
		return math.Max(1, rows/3)
	}
}

// --- access-path selection ---

// indexScanPlan is one resolved access-path decision: which index serves
// which conjunct, with the comparison key already coerced to the column
// type.
type indexScanPlan struct {
	ix     *Index
	op     string // "=", "<", "<=", ">", ">=", or "like"
	key    Value  // comparison key for "=" and range ops
	prefix string // literal prefix for "like"
	conj   Expr   // the conjunct the index satisfies
}

// planAccess decides how rp's base table is read under its conds: every
// conjunct an index can satisfy is a candidate, and the one expected to
// examine the fewest rows wins; no access means a sequential scan. Under
// Check (sum is non-nil) the plan's summary keeps planIndexScan's verdict
// on each conjunct. Each LIKE program it builds for a prefix goes to
// likes, for the compiler. Pure planning — no tree reads. Caller holds
// db.mu at least shared (DDL excluded), which keeps the table's index list
// still.
func (rp *relPlan) planAccess(params []Value, sum *PlanSummary, likes *[]*likeProgram) {
	var best indexScanPlan
	var bestRows float64
	for _, conj := range rp.conds {
		p, ok, why := planIndexScan(rp.t, rp.qual, conj, params, sum != nil, likes)
		if sum != nil {
			sum.verdicts = append(sum.verdicts, why)
		}
		if !ok {
			continue
		}
		if rows := planEstRows(rp.t, &p); best.ix == nil || rows < bestRows {
			best, bestRows = p, rows
		}
	}
	if best.ix != nil {
		rp.access = &best
	}
}

// planIndexScan attempts to satisfy one conjunct with an index of t and
// says why it cannot when it does not. The conjunct must have a shape an
// index can serve (indexableShape) over a column of t — a VARCHAR one for
// LIKE — and its operand must evaluate to a constant that is not NULL (no
// row matches a NULL key); a LIKE pattern must have a literal prefix, the
// column an index, and a comparison key must convert to the column type.
// Under Check (unbound) a ? has no value yet and is a key of unknown value,
// which converts and has a prefix; the executor and EXPLAIN always bind it.
// The program a LIKE pattern is read with is appended to likes.
func planIndexScan(t *Table, qual string, conj Expr, params []Value, unbound bool, likes *[]*likeProgram) (indexScanPlan, bool, ScanCond) {
	why := ScanCond{Expr: conj, Why: VerdictNoShape}
	sh, ok := indexableShape(conj)
	if !ok {
		return indexScanPlan{}, false, why
	}
	pos := columnForQual(t, qual, sh.col)
	if pos < 0 || (sh.op == "like" && t.Columns[pos].Type != TString) {
		return indexScanPlan{}, false, why
	}
	v, ok := constKey(sh.operand, params, unbound)
	if !ok {
		return indexScanPlan{}, false, why
	}
	ix := t.indexOn(pos)
	why.Column = t.Columns[pos].Name
	var prefix string
	if sh.op == "like" && !v.IsNull() {
		prog := compileLike(v.String())
		*likes = append(*likes, prog)
		if prefix, ok = prog.prefix(); !ok {
			why.Why, why.Pattern = VerdictNoPrefix, v.String()
			if ix != nil {
				why.Index = ix.Name
			}
			return indexScanPlan{}, false, why
		}
	}
	if ix == nil {
		why.Why = VerdictNoIndex
		return indexScanPlan{}, false, why
	}
	if sh.op != "like" && !v.IsNull() {
		var err error
		if v, err = CoerceToColumn(v, t.Columns[pos].Type); err != nil {
			why.Why = VerdictKeyType
			return indexScanPlan{}, false, why
		}
	}
	why.Why = VerdictIndexable
	return indexScanPlan{ix: ix, op: sh.op, key: v, prefix: prefix, conj: conj}, true, why
}

// constKey evaluates the operand of an index key or an implied binding; ok
// is false when it is no constant or NULL. Under Check (unbound) a ? is a
// key of unknown value: ok, with v NULL.
func constKey(operand Expr, params []Value, unbound bool) (v Value, ok bool) {
	v, err := evalConst(operand, params)
	if _, param := operand.(*Param); err != nil && param && unbound {
		return Null, true
	}
	return v, err == nil && !v.IsNull()
}

// indexShape is the one way a conjunct can drive an index scan: a column
// compared with an operand that is constant for the statement.
type indexShape struct {
	col     *ColumnRef
	op      string // "=", "<", "<=", ">", ">=" (as if the column were on the left), or "like"
	operand Expr   // the comparison operand, or the LIKE pattern
}

// indexableShape classifies one conjunct the way the planner does before
// it looks at the catalog: col = const, const = col, a range comparison
// in either orientation, or col LIKE pattern without NOT, where
// the operand references no column or aggregate.
func indexableShape(conj Expr) (indexShape, bool) {
	switch x := conj.(type) {
	case *Binary:
		flipped, ok := flipComparison(x.Op)
		if !ok {
			return indexShape{}, false
		}
		if c, ok := x.L.(*ColumnRef); ok {
			return indexShape{col: c, op: x.Op, operand: x.R}, constShaped(x.R)
		}
		if c, ok := x.R.(*ColumnRef); ok {
			return indexShape{col: c, op: flipped, operand: x.L}, constShaped(x.L)
		}
	case *LikeExpr:
		if c, ok := x.X.(*ColumnRef); ok && !x.Not {
			return indexShape{col: c, op: "like", operand: x.Pattern}, constShaped(x.Pattern)
		}
	}
	return indexShape{}, false
}

// flipComparison returns the operator that says the same with the
// operands exchanged; ok is false for anything but = and the four range
// comparisons.
func flipComparison(op string) (flipped string, ok bool) {
	switch op {
	case "=":
		return "=", true
	case "<":
		return ">", true
	case "<=":
		return ">=", true
	case ">":
		return "<", true
	case ">=":
		return "<=", true
	}
	return "", false
}

// constShaped reports whether e can be evaluated once per statement: no
// column references or aggregates. Parameters qualify.
func constShaped(e Expr) bool {
	ok := true
	walkExpr(e, func(x Expr) bool {
		switch n := x.(type) {
		case *ColumnRef:
			ok = false
		case *FuncCall:
			if isAggregate(n.Name) {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// columnForQual returns the table column position when c refers to table t
// (by the scan qualifier), or -1.
func columnForQual(t *Table, qual string, c *ColumnRef) int {
	if c.Table != "" && strings.ToLower(c.Table) != qual {
		return -1
	}
	return t.colIndex(c.Column)
}

// --- query planning: pushdown + join ordering ---

// stepCond is one conjunct referencing two or more relations, applied at
// the first join step where all of them are present. bound says implied
// equality bound both of its columns to one value, so the step keeps every
// pair the two scans let through.
type stepCond struct {
	cond  Expr
	mask  relSet
	bound bool
}

// relSet is a set of a FROM clause's relations by index. A clause of more
// relations than it holds is planned pinned.
type relSet uint64

const maxFreeRels = 64

func (s relSet) has(i int) bool { return s&(1<<i) != 0 }

// one reports whether the set holds exactly one relation.
func (s relSet) one() bool { return s != 0 && s&(s-1) == 0 }

// andJoin folds conds into one AND chain (nil for an empty list).
func andJoin(conds []Expr) Expr {
	var e Expr
	for _, c := range conds {
		if e == nil {
			e = c
		} else {
			e = &Binary{Op: "AND", L: e, R: c}
		}
	}
	return e
}

// planRel resolves one FROM entry or join target, written at off: a base
// table with its layout and row estimate.
func (vw view) planRel(table, alias string, off int) (*relPlan, error) {
	rp := &relPlan{alias: alias, qual: strings.ToLower(alias), off: off}
	t, err := vw.db.table(table)
	if err != nil {
		return nil, stampOff(err, off)
	}
	rp.t = t
	if rp.qual == "" {
		rp.qual = strings.ToLower(t.Name)
	}
	rp.cols = t.layout(rp.qual)
	rp.baseRows = estTableRows(t)
	return rp, nil
}

// planRels resolves from's relations in declaration order, so that the
// first table that does not exist is the error, and says whether the
// clause is planned pinned: a LEFT join, more relations than a relSet
// holds, or an ON condition that means something else against the whole
// clause than in its own scope (onInScope).
func (vw view) planRels(from []TableRef) (rels []*relPlan, pinned bool, err error) {
	nrels := len(from)
	for i := range from {
		nrels += len(from[i].Joins)
	}
	rels = make([]*relPlan, 0, nrels)
	add := func(table, alias string, off int) error {
		rp, err := vw.planRel(table, alias, off)
		if err == nil {
			rp.declIdx = len(rels)
			rels = append(rels, rp)
		}
		return err
	}
	for i := range from {
		tr := &from[i]
		if err := add(tr.Table, tr.Alias, tr.Off); err != nil {
			return nil, false, err
		}
		for j := range tr.Joins {
			jc := &tr.Joins[j]
			pinned = pinned || jc.Kind == JoinLeft
			if err := add(jc.Table, jc.Alias, jc.Off); err != nil {
				return nil, false, err
			}
		}
	}
	return rels, pinned || len(rels) > maxFreeRels || !onInScope(from, rels), nil
}

// attribution is the planner's one reading of which conjuncts filter
// what: each top-level conjunct of a statement's WHERE and of its FROM
// clause's inner ON conditions goes to the one relation it names alone
// (attributeCond), appended to that relation's conds in the order
// written; to the join steps when it names two or more; or to the
// residual filter. The executor pushes a relation's conds to its scan in
// a free plan, Check reports them with their verdicts, and
// Database.Predicate keeps them as a cached read's condition on the
// relation's table.
type attribution struct {
	rels     []*relPlan // the FROM clause's relations, in declaration order
	joins    []stepCond // the conjuncts that name two or more of them
	residual []Expr     // the conjuncts that name none, or a column not exactly one has
}

// attribute attributes the conjuncts of where and of from's inner ONs
// among rels, from's relations in declaration order.
func attribute(from []TableRef, where Expr, rels []*relPlan) attribution {
	at := attribution{rels: rels}
	at.add(where)
	for i := range from {
		for j := range from[i].Joins {
			if jc := &from[i].Joins[j]; jc.Kind == JoinInner {
				at.add(jc.On)
			}
		}
	}
	return at
}

// add attributes the conjuncts of e's chain of top-level ANDs.
func (at *attribution) add(e Expr) {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		at.add(b.L)
		at.add(b.R)
		return
	}
	if e == nil {
		return
	}
	mask, ok := attributeCond(e, at.rels)
	switch {
	case !ok:
		at.residual = append(at.residual, e)
	case mask.one():
		rp := at.rels[bits.TrailingZeros64(uint64(mask))]
		rp.conds = append(rp.conds, e)
	default:
		at.joins = append(at.joins, stepCond{cond: e, mask: mask})
	}
}

// planQuery plans a FROM clause under its WHERE clause. It is total: the
// relations resolve in declaration order (so the first table that does
// not exist is the error), and what it returns is what runs.
//
// Two or more relations that planRels does not pin are planned freely:
// pushdown of the conjuncts attribute gives each relation, implied
// equality, selectivity estimation, greedy join ordering. Anything else is
// pinned — declaration order, each explicit join where it was written,
// comma-listed entries multiplied, nothing pushed (pushdown and reordering
// change LEFT join semantics) — and only a lone base table is routed
// through an index, chosen among its conjuncts. Either way each join step
// gets the method its condition allows (hashKeyFor), except on the naive
// plan. Under Check the plan's summary keeps it. Caller holds db.mu at
// least shared.
func (vw view) planQuery(from []TableRef, where Expr, params []Value) (*fromPlan, error) {
	rels, pinned, err := vw.planRels(from)
	if err != nil {
		return nil, err
	}
	fp := &fromPlan{rels: rels, residual: where}
	if vw.sum != nil {
		defer vw.sum.from(fp, from)
	}
	at := attribute(from, where, rels)
	joinConds := at.joins
	if len(rels) == 1 {
		rp := rels[0]
		if !vw.naive {
			rp.planAccess(params, vw.sum, &fp.likes)
		}
		fp.root = rp
		return fp, nil
	}
	if pinned || vw.naive {
		fp.root = declaredJoins(from, rels, !vw.naive)
		return fp, nil
	}
	impliedConds(rels, joinConds, params, vw.sum != nil, func(r int, col *ColumnRef, operand Expr, step *stepCond) {
		rp := rels[r]
		rp.conds = append(rp.conds, &Binary{Op: "=", L: col, R: operand})
		rp.nImplied++
		step.bound = true
	})

	// Per-relation filter, access path, and cardinality after the filter.
	for _, rp := range rels {
		rp.filter = andJoin(rp.conds)
		rp.planAccess(params, vw.sum, &fp.likes)
		est := rp.baseRows
		for _, cond := range rp.conds {
			est *= condSelectivity(rp, cond)
		}
		rp.est = math.Max(1, est)
	}

	// Greedy join ordering. Start from the smallest estimated relation; at
	// each step add the relation whose join yields the smallest estimated
	// output.
	order := make([]*relPlan, 0, len(rels))
	start := 0
	for i, rp := range rels {
		if rp.est < rels[start].est {
			start = i
		}
	}
	chosen := relSet(1) << start
	order = append(order, rels[start])
	acc := rels[start].est
	for len(order) < len(rels) {
		best, bestCard := -1, math.MaxFloat64
		for r := range rels {
			if chosen.has(r) {
				continue
			}
			card := joinCardinality(acc, rels[r], chosen, r, joinConds)
			if card < bestCard {
				best, bestCard = r, card
			}
		}
		chosen |= 1 << best
		order = append(order, rels[best])
		acc = bestCard
	}
	for i, rp := range order {
		if rp.declIdx != i {
			fp.reordered = true
		}
	}

	// Join left-deep in that order, each condition at the earliest step
	// that covers its relations, rolling up cardinality and cost.
	assigned := make([]bool, len(joinConds))
	covered := relSet(1) << order[0].declIdx
	card := order[0].est
	cost := order[0].baseRows
	var node fromNode = order[0]
	for i, rp := range order[1:] {
		covered |= 1 << rp.declIdx
		var step []Expr
		sel := 1.0
		for j := range joinConds {
			if assigned[j] || joinConds[j].mask&^covered != 0 {
				continue
			}
			assigned[j] = true
			step = append(step, joinConds[j].cond)
			if !joinConds[j].bound {
				sel = math.Min(sel, condJoinSelectivity(rp, joinConds[j].cond))
			}
		}
		jp := &joinPlan{left: node, right: rp, kind: JoinCross, cond: andJoin(step)}
		if jp.cond != nil {
			jp.kind = JoinInner
			jp.hash = hashKeyFor(jp.cond, order[:i+2])
		}
		// The scan, then the pairs the step forms: every one in a nested
		// loop, one pass over each input in a hash join.
		if jp.hash != nil {
			cost += rp.baseRows + card + rp.est
		} else {
			cost += rp.baseRows + card*rp.est
		}
		card = math.Max(1, card*rp.est*sel)
		jp.card, jp.cost = card, cost
		node = jp
	}
	fp.root, fp.rels = node, order
	fp.residual = andJoin(at.residual)
	fp.free = true
	return fp, nil
}

// impliedConds derives the conjuncts implied equality adds to those
// attribute gave each relation, and hands each to derive: the relation,
// and col = operand over one of its columns, derived through the join
// conjunct step. Where a join conjunct equates a column of one base
// relation with a column of another of the same declared type (c.k = p.k),
// and a conjunct of one of the relations binds its column to a literal or
// parameter (p.k = ?), the other is bound to it too (c.k = ?), and on from
// there through further join equalities. The original conjuncts all stay,
// so a derived one only narrows: a row it drops, the join would have
// dropped, and it lets the relation's scan use an index on the column.
// Equality is transitive only within one type: Compare coerces across
// types (an INTEGER beside a DOUBLE, a VARCHAR beside a number), so a join
// of mixed types derives nothing. The bound value must be of the column's
// class too, so that the derived conjunct cannot fail on a row: Compare
// raises no error between values of one class. Under Check (unbound) a ?
// binds a value of unknown class, assumed the column's. Nothing of rels
// or joinConds is written.
func impliedConds(rels []*relPlan, joinConds []stepCond, params []Value, unbound bool, derive func(rel int, col *ColumnRef, operand Expr, step *stepCond)) {
	// Each join equality of one type, once in each direction: a binding of
	// from's column binds to's.
	type edge struct {
		from, to relColumn
		toRef    *ColumnRef
		step     *stepCond
	}
	var edgeBuf [8]edge
	edges := edgeBuf[:0]
	for j := range joinConds {
		b, ok := joinConds[j].cond.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		l, lok := baseColumn(b.L, rels)
		r, rok := baseColumn(b.R, rels)
		if !lok || !rok || l.rel == r.rel || l.typ(rels) != r.typ(rels) {
			continue
		}
		if _, ok := keyClassOf(l.typ(rels), r.typ(rels)); ok {
			lRef, rRef := b.L.(*ColumnRef), b.R.(*ColumnRef)
			edges = append(edges, edge{l, r, rRef, &joinConds[j]}, edge{r, l, lRef, &joinConds[j]})
		}
	}
	if len(edges) == 0 {
		return
	}
	// The operand each column is bound to by a conjunct of its relation.
	type binding struct {
		col     relColumn
		operand Expr
	}
	var boundBuf [8]binding
	bound := boundBuf[:0]
	boundTo := func(c relColumn) Expr {
		for _, b := range bound {
			if b.col == c {
				return b.operand
			}
		}
		return nil
	}
	for i, rp := range rels {
		for _, conj := range rp.conds {
			sh, ok := indexableShape(conj)
			if !ok || sh.op != "=" {
				continue
			}
			switch sh.operand.(type) {
			case *Literal, *Param:
			default:
				continue
			}
			c, ok := baseColumn(sh.col, rels)
			if !ok || c.rel != i || boundTo(c) != nil {
				continue
			}
			v, ok := constKey(sh.operand, params, unbound)
			if !ok {
				continue
			}
			if _, ok := keyClassOf(c.typ(rels), v.T); ok || v.IsNull() {
				bound = append(bound, binding{c, sh.operand})
			}
		}
	}
	for derived := true; derived; {
		derived = false
		for _, e := range edges {
			operand := boundTo(e.from)
			if operand == nil || boundTo(e.to) != nil {
				continue
			}
			derive(e.to.rel, e.toRef, operand, e.step)
			bound = append(bound, binding{e.to, operand})
			derived = true
		}
	}
}

// declaredJoins builds the join tree of a pinned FROM clause exactly as
// it is written: each entry's explicit joins chained onto it with their
// own ON conditions, the comma-listed entries then multiplied in order.
// With hash, each explicit join gets the join method its condition allows;
// the naive plan keeps the nested loop everywhere.
func declaredJoins(from []TableRef, rels []*relPlan, hash bool) fromNode {
	var acc fromNode
	k := 0
	for i := range from {
		entry := k
		var node fromNode = rels[k]
		k++
		for j := range from[i].Joins {
			jc := &from[i].Joins[j]
			jp := &joinPlan{left: node, right: rels[k], kind: jc.Kind, cond: jc.On}
			if hash {
				jp.hash = hashKeyFor(jc.On, rels[entry:k+1])
			}
			node = jp
			k++
		}
		if acc == nil {
			acc = node
		} else {
			acc = &joinPlan{left: acc, right: node, kind: JoinCross, comma: true}
		}
	}
	return acc
}

// onInScope reports whether every ON condition of from means against the
// whole FROM clause, which is the layout a free plan attributes and binds
// conjuncts in, what it means against the relations of its own entry
// joined so far, which is its scope and where a pinned plan binds it.
// Where it does not — a reference to a relation joined later, or to a
// name another entry also has — the FROM clause is planned pinned, and the
// statement runs, or fails, by the one rule. rels are from's relations in
// declaration order.
func onInScope(from []TableRef, rels []*relPlan) bool {
	k := 0
	for i := range from {
		entry := k
		k++
		for j := range from[i].Joins {
			k++
			ok := true
			walkExpr(from[i].Joins[j].On, func(x Expr) bool {
				if c, isRef := x.(*ColumnRef); isRef {
					if r := refRel(c, rels); r < entry || r >= k {
						ok = false
					}
				}
				return ok
			})
			if !ok {
				return false
			}
		}
	}
	return true
}

// attributeCond determines which relations cond references. ok is false
// when the conjunct must stay in the residual filter: it contains an
// aggregate, references no columns, or has a reference that
// cannot be resolved to exactly one relation (including every case bind
// rejects — ambiguity and undefined columns surface from the residual
// bind), or to one of the first maxFreeRels.
func attributeCond(cond Expr, rels []*relPlan) (relSet, bool) {
	var mask relSet
	ok := true
	walkExpr(cond, func(x Expr) bool {
		switch v := x.(type) {
		case *FuncCall:
			ok = ok && !isAggregate(v.Name)
		case *ColumnRef:
			r := refRel(v, rels)
			ok = ok && r >= 0 && r < maxFreeRels
			if ok {
				mask |= 1 << r
			}
		}
		return ok
	})
	return mask, ok && mask != 0
}

// refRel returns the index in rels of the relation c refers to, or -1 when
// it is not exactly one: a qualifier none or several of them bind, an
// unqualified name none or several of their columns have, or one that a
// layout not known before it runs may have too.
func refRel(c *ColumnRef, rels []*relPlan) int {
	found := -1
	if c.Table != "" {
		q := strings.ToLower(c.Table)
		for i, rp := range rels {
			if rp.qual == q {
				if found >= 0 {
					return -1 // duplicate qualifier
				}
				found = i
			}
		}
		return found
	}
	name := strings.ToLower(c.Column)
	for i, rp := range rels {
		if rp.cols == nil {
			return -1
		}
		for _, col := range rp.cols {
			if col.name == name {
				if found >= 0 {
					return -1
				}
				found = i
			}
		}
	}
	return found
}

// relEqColumn returns the column position on rp that cond compares for
// equality with a constant (indexableShape), or -1.
func relEqColumn(rp *relPlan, cond Expr) int {
	if sh, ok := indexableShape(cond); ok && sh.op == "=" {
		return columnForQual(rp.t, rp.qual, sh.col)
	}
	return -1
}

// condSelectivity estimates the fraction of rp's rows a pushed conjunct
// keeps.
func condSelectivity(rp *relPlan, cond Expr) float64 {
	switch x := cond.(type) {
	case *Binary:
		if x.Op == "=" {
			if pos := relEqColumn(rp, cond); pos >= 0 {
				if ix := rp.t.indexOn(pos); ix != nil {
					if ix.Unique {
						return 1 / math.Max(1, rp.baseRows)
					}
					return 1 / math.Max(1, float64(ix.distinct.Load()))
				}
			}
			return 0.1
		}
		return 1.0 / 3
	case *LikeExpr:
		if x.Not {
			return 0.75
		}
		return 0.25
	case *IsNullExpr:
		return 0.1
	default:
		return 1.0 / 3
	}
}

// condJoinSelectivity estimates a join condition's selectivity when rp
// joins the accumulated set: an equi-join over rp's column divides by
// that column's distinct count (its index's, when one exists).
func condJoinSelectivity(rp *relPlan, cond Expr) float64 {
	b, ok := cond.(*Binary)
	if !ok || b.Op != "=" {
		return 1.0 / 3
	}
	if rp.t != nil {
		for _, side := range [2]Expr{b.L, b.R} {
			c, ok := side.(*ColumnRef)
			if !ok {
				continue
			}
			pos := columnForQual(rp.t, rp.qual, c)
			if pos < 0 {
				continue
			}
			if ix := rp.t.indexOn(pos); ix != nil {
				return 1 / math.Max(1, float64(ix.distinct.Load()))
			}
			// No index: assume the join column is close to a key.
			return 1 / math.Max(1, rp.baseRows)
		}
	}
	return 1.0 / 3
}

// joinCardinality estimates the output rows of joining rp (index r) onto
// an accumulated set of acc rows, using the best applicable unassigned
// join condition.
func joinCardinality(acc float64, rp *relPlan, chosen relSet, r int, joinConds []stepCond) float64 {
	sel := 1.0
	connected := false
	for j := range joinConds {
		m := joinConds[j].mask
		if !m.has(r) || m&^(chosen|1<<r) != 0 {
			continue
		}
		connected = true
		if !joinConds[j].bound {
			sel = math.Min(sel, condJoinSelectivity(rp, joinConds[j].cond))
		}
	}
	if !connected {
		return acc * rp.est
	}
	return math.Max(1, acc*rp.est*sel)
}

// estText renders an estimate annotation for EXPLAIN. The wording avoids
// the exact substrings ANALYZE uses for observed counters ("rows=",
// "examined=") so a dry EXPLAIN stays free of runtime-counter text.
func estText(card, cost float64) string {
	return fmt.Sprintf("Est: ~%.0f (cost=%.1f)", card, cost)
}
