package sqlsema

import (
	"fmt"
	"strings"

	"db2www/internal/sqldb"
)

// Planner-driven performance lints. A conjunct can route a scan through
// an index only when sqldb.IndexableShape — the test the planner itself
// starts from — accepts it and the column is indexed, so the analyzer
// predicts, without executing, which WHERE clauses the cost-based planner
// will be unable to serve with anything better than a sequential scan.
// What is decided here is only what a macro adds to that: a literal that
// is partly or wholly a substitution slot, and the CREATE INDEX hint.

// fromEntry is one relation of a FROM clause: a base table of the
// catalog, or a derived table (tbl nil).
type fromEntry struct {
	qual   string             // lower-cased alias, or table name when unaliased: what Check binds under
	tbl    *sqldb.SchemaTable // nil for a derived table or an unknown one
	opaque bool               // a table the catalog does not have
	off    int                // byte offset of the relation in the FROM clause
	cross  bool               // introduced by an explicit CROSS JOIN (intentional product)
}

// rels lists the relations of a FROM clause in declaration order.
func (a *analyzer) rels(from []sqldb.TableRef) []*fromEntry {
	var out []*fromEntry
	add := func(table, alias string, off int, cross bool) {
		r := &fromEntry{qual: strings.ToLower(alias), off: off, cross: cross}
		if table != "" {
			r.tbl = a.catalog.Table(table)
			r.opaque = r.tbl == nil
			if r.qual == "" {
				r.qual = strings.ToLower(table)
			}
		}
		out = append(out, r)
	}
	for _, tr := range from {
		add(tr.Table, tr.Alias, tr.Off, false)
		for _, jc := range tr.Joins {
			add(jc.Table, jc.Alias, jc.Off, jc.Kind == sqldb.JoinCross)
		}
	}
	return out
}

// wildcardDiag is a deferred leading-wildcard diagnosis: emitted only if
// no other conjunct gives the relation an index path (if one does, the
// pattern is a cheap residual filter and not worth a warning).
type wildcardDiag struct {
	off     int
	pattern string
	ixName  string
	col     string
}

// usability is indexUsable's verdict on one single-relation conjunct.
type usability struct {
	usable     bool
	wildcard   *wildcardDiag
	missingCol string // indexable shape, but no index on this column
}

// conjRels returns the set of relations of rels a conjunct's column
// references read, as Check bound them. ok is false when any reference
// did not bind (the conjunct is then ignored by the perf analysis — the
// engine's error is the finding).
func (a *analyzer) conjRels(rels []*fromEntry, conj sqldb.Expr) (map[*fromEntry]bool, bool) {
	out := map[*fromEntry]bool{}
	ok := true
	sqldb.WalkExpr(conj, func(e sqldb.Expr) bool {
		if cr, is := e.(*sqldb.ColumnRef); is {
			r := a.relOf(rels, cr)
			ok = r != nil
			out[r] = true
		}
		return ok
	})
	return out, ok
}

// relOf returns the relation of rels cr binds to, or nil.
func (a *analyzer) relOf(rels []*fromEntry, cr *sqldb.ColumnRef) *fromEntry {
	if bc, ok := a.bind[cr]; ok {
		for _, r := range rels {
			if r.qual == bc.Rel {
				return r
			}
		}
	}
	return nil
}

// indexUsable decides whether one conjunct attributed to relation r can
// route r's scan through an index.
func (a *analyzer) indexUsable(rels []*fromEntry, conj sqldb.Expr, r *fromEntry) usability {
	sh, ok := sqldb.IndexableShape(conj)
	if !ok || a.relOf(rels, sh.Col) != r {
		return usability{}
	}
	c := r.tbl.Column(a.bind[sh.Col].Column.Name)
	lit, isLit := sh.Operand.(*sqldb.Literal)
	if sh.Op != "like" {
		// The planner skips NULL keys (no row can match), so col = NULL
		// never claims an index path.
		if isLit && lit.Val.IsNull() {
			return usability{}
		}
		if r.tbl.IndexOn(c.Name) == nil {
			return usability{missingCol: c.Name}
		}
		// The planner also requires the key to coerce to the column
		// type; an uncoercible literal is a type error the sqltype
		// rule already flags, so perf stays quiet about it.
		return usability{usable: true}
	}
	if c.Type != sqldb.TString {
		return usability{}
	}
	if !isLit {
		// A slot pattern may carry an indexable prefix at runtime:
		// give it the benefit of the doubt.
		return usability{usable: true}
	}
	ix := r.tbl.IndexOn(c.Name)
	pat := lit.Val.S
	known, opaque := a.opaquePrefix(lit.Off)
	if !opaque {
		known = pat
	}
	if known != "" && (known[0] == '%' || known[0] == '_') {
		if ix != nil {
			return usability{wildcard: &wildcardDiag{
				off: lit.Off, pattern: known, ixName: ix.Name, col: c.Name,
			}}
		}
		return usability{} // no index to defeat; plain seq scan
	}
	if opaque {
		// Known prefix is literal text; the dynamic tail may well
		// end in %. Assume the best.
		return usability{usable: true}
	}
	if _, ok := sqldb.IndexablePrefix(pat); !ok {
		return usability{} // inner wildcard or no trailing %: never indexable
	}
	if ix == nil {
		return usability{missingCol: c.Name}
	}
	return usability{usable: true}
}

// relState accumulates the per-relation verdicts of perfConjuncts.
type relState struct {
	hasFilter bool
	usable    bool
	wildcards []*wildcardDiag
	firstOff  int
	fixCol    string
}

// perfConjuncts runs the sequential-scan prediction over the filtering
// conjuncts of one statement over rels.
func (a *analyzer) perfConjuncts(rels []*fromEntry, conjs []sqldb.Expr) {
	st := map[*fromEntry]*relState{}
	for _, conj := range conjs {
		on, ok := a.conjRels(rels, conj)
		if !ok || len(on) != 1 {
			continue
		}
		var r *fromEntry
		for rr := range on {
			r = rr
		}
		if r.tbl == nil {
			continue // derived or unknown table: no index story to tell
		}
		s := st[r]
		if s == nil {
			s = &relState{firstOff: -1}
			st[r] = s
		}
		s.hasFilter = true
		u := a.indexUsable(rels, conj, r)
		if u.usable {
			s.usable = true
		}
		if u.wildcard != nil {
			s.wildcards = append(s.wildcards, u.wildcard)
		}
		if !u.usable && s.firstOff < 0 {
			s.firstOff = sqldb.ExprOff(conj)
		}
		if s.fixCol == "" && u.missingCol != "" {
			s.fixCol = u.missingCol
		}
	}
	for _, r := range rels {
		s := st[r]
		if s == nil || !s.hasFilter || s.usable {
			continue
		}
		rows := ""
		if n := r.tbl.EstRows; n > 0 {
			rows = fmt.Sprintf(" of ~%d rows", n)
		}
		if len(s.wildcards) > 0 {
			for _, w := range s.wildcards {
				a.add(RulePerf, SevWarn, w.off,
					fmt.Sprintf("leading-wildcard LIKE pattern %q cannot use index %q on %s.%s; the planner falls back to a sequential scan%s",
						w.pattern, w.ixName, r.tbl.Name, w.col, rows), "")
			}
			continue
		}
		fix := ""
		if s.fixCol != "" {
			fix = fmt.Sprintf("CREATE INDEX %s_%s_idx ON %s(%s)",
				strings.ToLower(r.tbl.Name), strings.ToLower(s.fixCol), r.tbl.Name, s.fixCol)
		}
		a.add(RulePerf, SevWarn, s.firstOff,
			fmt.Sprintf("no predicate on %q can use an index; the planner falls back to a sequential scan%s", r.tbl.Name, rows), fix)
	}
}

// perfSelect runs all performance predictions for one SELECT.
func (a *analyzer) perfSelect(sel *sqldb.SelectStmt, reported bool) {
	if reported {
		star := sel.Star || len(sel.Items) == 0
		if !star {
			for _, it := range sel.Items {
				if it.TableStar != "" {
					star = true
					break
				}
			}
		}
		if star {
			a.add(RulePerf, SevInfo, -1,
				"SELECT * feeds a report template: the template silently depends on column order and every column is shipped",
				"project only the columns the report references")
		}
	}
	rels := a.rels(sel.From)
	if len(rels) == 0 {
		return
	}

	filters := sqldb.Conjuncts(sel.Where)
	connect := append([]sqldb.Expr(nil), filters...)
	// Explicit join ONs: inner-join conditions filter like WHERE
	// conjuncts; all ONs (inner and left) connect relations.
	for i := range sel.From {
		for j := range sel.From[i].Joins {
			jc := &sel.From[i].Joins[j]
			if jc.On == nil {
				continue
			}
			on := sqldb.Conjuncts(jc.On)
			if jc.Kind == sqldb.JoinInner {
				filters = append(filters, on...)
			}
			connect = append(connect, on...)
		}
	}

	a.perfConjuncts(rels, filters)
	a.crossProduct(sel, rels, connect)
}

// crossProduct warns when the FROM clause joins relations with no join
// predicate connecting them: the engine has no choice but to materialise
// the full cartesian product before filtering.
func (a *analyzer) crossProduct(sel *sqldb.SelectStmt, rels []*fromEntry, conjs []sqldb.Expr) {
	if len(rels) < 2 {
		return
	}
	for _, r := range rels {
		if r.opaque || r.cross {
			// Unknown membership makes edge detection unreliable, and
			// an explicit CROSS JOIN is a stated intent.
			return
		}
	}
	idx := map[*fromEntry]int{}
	for i, r := range rels {
		idx[r] = i
	}
	parent := make([]int, len(rels))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) { parent[find(x)] = find(y) }

	// Structural edges: an explicit join chains its relation onto the
	// entry's base relation, whatever its ON says.
	ri := 0
	for i := range sel.From {
		base := ri
		ri++
		for range sel.From[i].Joins {
			union(base, ri)
			ri++
		}
	}
	for _, conj := range conjs {
		on, ok := a.conjRels(rels, conj)
		if !ok {
			return // unbound references: edges unknowable, stay quiet
		}
		if len(on) < 2 {
			continue
		}
		first := -1
		for r := range on {
			if first < 0 {
				first = idx[r]
				continue
			}
			union(first, idx[r])
		}
	}

	root0 := find(0)
	var product int64 = 1
	allKnown := true
	for _, r := range rels {
		if r.tbl != nil && r.tbl.EstRows > 0 {
			product *= r.tbl.EstRows
		} else {
			allKnown = false
		}
	}
	for i, r := range rels {
		if i == 0 || find(i) == root0 {
			continue
		}
		rows := ""
		if allKnown {
			rows = fmt.Sprintf(" (~%d rows examined)", product)
		}
		name := r.qual
		if r.tbl != nil {
			name = r.tbl.Name
		}
		a.add(RulePerf, SevWarn, r.off,
			fmt.Sprintf("no join predicate connects %q to the rest of the FROM clause; the join is a cross product%s", name, rows),
			"add a join condition or make the cartesian product explicit with CROSS JOIN")
	}
}
