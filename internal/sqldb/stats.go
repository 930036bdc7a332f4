package sqldb

import (
	"fmt"
	"math"
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
// On top of them sit three decisions, all disabled by SetPlannerEnabled
// (false) to recover the legacy engine exactly:
//
//   - access-path selection: planScanAccess scores every usable conjunct
//     and picks the index expected to examine the fewest rows, instead
//     of the legacy first-match rule (exec.go);
//   - predicate pushdown: planQuery attributes WHERE and inner-join ON
//     conjuncts to the single relation they mention and applies them at
//     that relation's scan, below the joins;
//   - join ordering: multi-relation FROM clauses of base tables are
//     joined greedily by estimated cardinality, smallest first, with the
//     output layout remapped back to declaration order.
//
// Everything here is estimation only — correctness never depends on a
// statistic being current. A conjunct that cannot be attributed safely
// stays in the residual WHERE clause, which binds and evaluates against
// the full join layout exactly as the legacy path did (preserving
// undefined-column and ambiguity errors).

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

// --- query planning: pushdown + join ordering ---

// relPlan is one relation in a planned multi-relation FROM clause.
type relPlan struct {
	declIdx  int         // position in declaration order
	table    string      // base table name ("" for derived)
	t        *Table      // resolved base table (nil for derived)
	sub      *SelectStmt // derived table (nil for base)
	alias    string
	qual     string   // lower-cased binding qualifier
	cols     []string // known lower-cased output columns; nil = opaque
	site     any      // tracker identity: *TableRef or *JoinClause
	pushed   []Expr   // conjuncts applied at this relation's scan
	baseRows float64  // estimated rows before pushed filters
	est      float64  // estimated rows after pushed filters
}

// fromPlan is the planned execution of a FROM clause: relations in join
// order, the conjuncts applied at each join step, and the residual WHERE
// clause left for the post-join filter.
type fromPlan struct {
	rels      []*relPlan // execution order
	steps     [][]Expr   // steps[i]: conds applied when rels[i] joins (i >= 1)
	stepCard  []float64  // estimated output rows after joining rels[i]
	stepCost  []float64  // cumulative estimated cost through step i
	residual  Expr       // AND of unattributed conjuncts; nil when none
	reordered bool       // execution order differs from declaration order
}

// stepCond is one conjunct referencing two or more relations, applied at
// the first join step where all of them are present.
type stepCond struct {
	cond Expr
	mask map[int]bool
}

// andJoin folds conds into one AND chain (nil for an empty list). The
// wrapper nodes are freshly allocated per call, so two executions of a
// cached statement never share bind state through them.
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

// derivedCols returns the lower-cased output column names a derived
// table will expose, mirroring expandProjection's naming, or nil when
// the projection cannot be resolved statically (SELECT * or t.*).
func derivedCols(sub *SelectStmt) []string {
	if sub.Star {
		return nil
	}
	out := make([]string, 0, len(sub.Items))
	for i, it := range sub.Items {
		if it.TableStar != "" {
			return nil
		}
		switch {
		case it.Alias != "":
			out = append(out, strings.ToLower(it.Alias))
		default:
			if c, ok := it.Expr.(*ColumnRef); ok {
				out = append(out, strings.ToLower(c.Column))
			} else {
				out = append(out, fmt.Sprintf("col%d", i+1))
			}
		}
	}
	return out
}

// planQuery plans a multi-relation FROM clause: pushdown attribution,
// selectivity estimation, and greedy join ordering. It returns nil when
// the planner should not engage — planner disabled, fewer than two
// relations (the legacy single-table path already routes WHERE through
// indexes), any LEFT join (pushdown and reordering change LEFT join
// semantics), or an unresolvable table (the legacy path reports the
// error). Caller holds db.mu at least shared.
func (vw view) planQuery(sel *SelectStmt) *fromPlan {
	if vw.db.noPlanner || len(sel.From) == 0 {
		return nil
	}
	var rels []*relPlan
	var conds []Expr
	addRel := func(table string, sub *SelectStmt, alias string, site any) bool {
		rp := &relPlan{declIdx: len(rels), table: table, sub: sub, alias: alias, site: site}
		if sub != nil {
			rp.qual = strings.ToLower(alias)
			rp.cols = derivedCols(sub)
			rp.baseRows = 100 // no statistics inside a derived table
		} else {
			t, err := vw.db.table(table)
			if err != nil {
				return false
			}
			rp.t = t
			rp.qual = strings.ToLower(alias)
			if rp.qual == "" {
				rp.qual = strings.ToLower(t.Name)
			}
			rp.cols = make([]string, len(t.Columns))
			for i := range t.Columns {
				rp.cols[i] = strings.ToLower(t.Columns[i].Name)
			}
			rp.baseRows = estTableRows(t)
		}
		rels = append(rels, rp)
		return true
	}
	for i := range sel.From {
		tr := &sel.From[i]
		if !addRel(tr.Table, tr.Sub, tr.Alias, tr) {
			return nil
		}
		for j := range tr.Joins {
			jc := &tr.Joins[j]
			if jc.Kind == JoinLeft {
				return nil
			}
			if !addRel(jc.Table, jc.Sub, jc.Alias, jc) {
				return nil
			}
			if jc.On != nil {
				conds = append(conds, andConjuncts(jc.On)...)
			}
		}
	}
	if len(rels) < 2 {
		return nil
	}
	if sel.Where != nil {
		conds = append(andConjuncts(sel.Where), conds...)
	}

	// Attribute each conjunct: to one relation (pushed), to a join step
	// (multi-relation), or to the residual filter.
	var joinConds []stepCond
	var residual []Expr
	for _, cond := range conds {
		mask, ok := attributeCond(cond, rels)
		switch {
		case !ok:
			residual = append(residual, cond)
		case len(mask) == 1:
			for i := range mask {
				rels[i].pushed = append(rels[i].pushed, cond)
			}
		default:
			joinConds = append(joinConds, stepCond{cond: cond, mask: mask})
		}
	}

	// Per-relation cardinality after pushed filters.
	for _, rp := range rels {
		est := rp.baseRows
		for _, cond := range rp.pushed {
			est *= condSelectivity(rp, cond)
		}
		rp.est = math.Max(1, est)
	}

	// Greedy join ordering, base tables only (derived-table estimates are
	// guesses, and reordering around them buys little). Start from the
	// smallest estimated relation; at each step add the relation whose
	// join yields the smallest estimated output.
	order := make([]int, len(rels))
	for i := range order {
		order[i] = i
	}
	allBase := true
	for _, rp := range rels {
		if rp.sub != nil {
			allBase = false
		}
	}
	if allBase {
		start := 0
		for i, rp := range rels {
			if rp.est < rels[start].est {
				start = i
			}
		}
		chosen := map[int]bool{start: true}
		order = order[:0]
		order = append(order, start)
		acc := rels[start].est
		for len(order) < len(rels) {
			best, bestCard := -1, math.MaxFloat64
			for r := range rels {
				if chosen[r] {
					continue
				}
				card := joinCardinality(acc, rels[r], chosen, r, joinConds)
				if card < bestCard {
					best, bestCard = r, card
				}
			}
			chosen[best] = true
			order = append(order, best)
			acc = bestCard
		}
	}

	fp := &fromPlan{
		rels:     make([]*relPlan, len(order)),
		steps:    make([][]Expr, len(order)),
		stepCard: make([]float64, len(order)),
		stepCost: make([]float64, len(order)),
		residual: andJoin(residual),
	}
	for i, r := range order {
		fp.rels[i] = rels[r]
		if r != i {
			fp.reordered = true
		}
	}

	// Assign each join condition to the earliest step covering its mask,
	// and roll up cardinality/cost estimates for EXPLAIN.
	assigned := make([]bool, len(joinConds))
	covered := map[int]bool{fp.rels[0].declIdx: true}
	card := fp.rels[0].est
	cost := fp.rels[0].baseRows
	fp.stepCard[0] = card
	fp.stepCost[0] = cost
	for i := 1; i < len(fp.rels); i++ {
		rp := fp.rels[i]
		covered[rp.declIdx] = true
		sel := 1.0
		for j := range joinConds {
			if assigned[j] {
				continue
			}
			in := true
			for m := range joinConds[j].mask {
				if !covered[m] {
					in = false
					break
				}
			}
			if !in {
				continue
			}
			assigned[j] = true
			fp.steps[i] = append(fp.steps[i], joinConds[j].cond)
			sel = math.Min(sel, condJoinSelectivity(rp, joinConds[j].cond))
		}
		cost += rp.baseRows + card*rp.est // scan + nested-loop pairs
		card = math.Max(1, card*rp.est*sel)
		fp.stepCard[i] = card
		fp.stepCost[i] = cost
	}
	return fp
}

// attributeCond determines which relations cond references. ok is false
// when the conjunct must stay in the residual filter: it contains a
// subquery or aggregate, references no columns, or has a reference that
// cannot be resolved to exactly one relation (including every case the
// legacy bind would reject — ambiguity and undefined columns surface
// from the residual bind exactly as before).
func attributeCond(cond Expr, rels []*relPlan) (map[int]bool, bool) {
	bad := false
	var refs []*ColumnRef
	walkExpr(cond, func(x Expr) bool {
		switch v := x.(type) {
		case *Subquery, *ExistsExpr:
			bad = true
			return false
		case *FuncCall:
			if isAggregate(v.Name) {
				bad = true
				return false
			}
		case *ColumnRef:
			refs = append(refs, v)
		}
		return true
	})
	if bad || len(refs) == 0 {
		return nil, false
	}
	mask := map[int]bool{}
	for _, c := range refs {
		if c.Table != "" {
			q := strings.ToLower(c.Table)
			found := -1
			for i, rp := range rels {
				if rp.qual == q {
					if found >= 0 {
						return nil, false // duplicate qualifier
					}
					found = i
				}
			}
			if found < 0 {
				return nil, false
			}
			mask[found] = true
			continue
		}
		// Unqualified: require every relation's columns to be known and
		// the name to resolve to exactly one column overall.
		name := strings.ToLower(c.Column)
		found, matches := -1, 0
		for i, rp := range rels {
			if rp.cols == nil {
				return nil, false
			}
			for _, col := range rp.cols {
				if col == name {
					matches++
					found = i
				}
			}
		}
		if matches != 1 {
			return nil, false
		}
		mask[found] = true
	}
	return mask, true
}

// relEqColumn returns the column position on rp that cond (a Binary "=")
// compares against a non-column side, or -1.
func relEqColumn(rp *relPlan, cond Expr) int {
	b, ok := cond.(*Binary)
	if !ok || b.Op != "=" || rp.t == nil {
		return -1
	}
	for _, side := range [2]struct{ col, other Expr }{{b.L, b.R}, {b.R, b.L}} {
		c, ok := side.col.(*ColumnRef)
		if !ok {
			continue
		}
		if _, isCol := side.other.(*ColumnRef); isCol {
			continue
		}
		if pos := columnForQual(rp.t, rp.qual, c); pos >= 0 {
			return pos
		}
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
func joinCardinality(acc float64, rp *relPlan, chosen map[int]bool, r int, joinConds []stepCond) float64 {
	sel := 1.0
	connected := false
	for j := range joinConds {
		in := true
		hasR := false
		for m := range joinConds[j].mask {
			if m == r {
				hasR = true
				continue
			}
			if !chosen[m] {
				in = false
				break
			}
		}
		if !in || !hasR {
			continue
		}
		connected = true
		sel = math.Min(sel, condJoinSelectivity(rp, joinConds[j].cond))
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
