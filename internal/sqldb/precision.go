package sqldb

import (
	"hash/maphash"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"db2www/internal/decimal"
)

// Precision invalidation: what a result cache needs to drop only the
// cached reads a write can have changed.
//
// A cacheable SELECT's result is made of combinations of rows, one from
// each relation of its FROM clause, and without a LEFT join every row in a
// combination satisfies the top-level AND conjuncts of WHERE and of the
// inner ON conditions that mention its own table's columns alone. A row
// that satisfies them neither before nor after a write therefore takes
// part in the result neither before nor after it: the write cannot have
// changed the result through that row. That is the conflict test of
// precision locking (Jordan, Banerjee & Batman, SIGMOD 1981), used to
// invalidate rather than to lock: a commit's change record (version.go)
// holds the old and new image of each row it wrote, a cached read keeps
// one predicate per table it read, and the read is stale only when one of
// the images satisfies its predicate for that table.
//
// The predicate of a table is the planner's: the conjuncts attribute gives
// the table's relation, with those implied equality derives for it, compiled
// per read with the text's extracted values bound, by the compiler the
// executor uses (Database.Predicate). The whole table stands in for it —
// every row matches — where the argument above does not hold or cannot be
// checked: a pinned FROM clause (a LEFT join), a table read twice, no
// conjunct of the table's own, and a condition of the statement that could
// raise an error on some row (the direct execution might then fail where
// the cached result stands; a statement whose every condition compares
// columns and constants of comparable types cannot).

// readPlan is a cacheable SELECT shape as Database.Predicate reads it: the
// parse the plan cache keeps, and the attribution of its conjuncts against
// the catalog last asked about. Every text of the shape shares it.
type readPlan struct {
	sel  *SelectStmt
	last atomic.Pointer[readAttribution]
}

// readAttribution is attribute's record of a shape over the tables its
// relations resolved to, read-only once kept: the relations' conds are
// clipped, so a read that adds implied ones copies them.
type readAttribution struct {
	attribution
	pinned bool
}

// attribution returns the shape's readAttribution under the catalog as it
// is — the one kept while the catalog still holds the tables it resolved —
// or nil when a table it reads does not exist. Caller holds db.mu at least
// shared.
func (r *readPlan) attribution(db *Database) *readAttribution {
	if a := r.last.Load(); a != nil && a.current(db) {
		return a
	}
	rels, pinned, err := view{db: db}.planRels(r.sel.From)
	if err != nil {
		return nil
	}
	a := &readAttribution{attribution: attribute(r.sel.From, r.sel.Where, rels), pinned: pinned}
	for _, rp := range rels {
		rp.conds = slices.Clip(rp.conds)
	}
	r.last.Store(a)
	return a
}

// current reports whether the catalog still holds the tables a's
// relations resolved to; a table's columns never change, so a's
// attribution then still holds.
func (a *readAttribution) current(db *Database) bool {
	for _, rp := range a.rels {
		if db.tables[strings.ToLower(rp.t.Name)] != rp.t {
			return false
		}
	}
	return true
}

// Predicate is a cached read's condition on the rows of one table it
// read, for the layout of a change's images. The nil Predicate is the
// whole table: every row matches it. Its conjuncts are compiled at the
// first image it is asked about, so a predicate whose key keeps images
// away is never compiled; a Predicate is not safe for concurrent use.
type Predicate struct {
	rel   *relPlan // the table's relation in the read's attribution
	f     *Facts   // the read's, which the Predicate is kept beside
	conds []Expr   // rel's, with those implied equality derives for it last
	fns   []predFn // conds compiled by Matches
	key   EqKey
	keyed bool
	bad   bool // a conjunct did not compile: every row matches
}

// Predicate returns f's condition on the rows of the table ch is a change
// of, one of f.Tables, for ch's images, with the text's extracted values
// bound: nil, the whole table, when the plan's attribution gives the table
// no conjunct of its own, ch is a change of the whole table, or a
// condition of the statement could raise an error (safeCond). f is a
// cacheable SELECT's facts, from StatementFacts; the Predicate refers to
// it, and must not outlive it. The relations are the catalog's; a catalog
// whose table is no longer ch's has changed it as a whole since, and the
// entry goes on that change. Of the planner only attribute, kept per
// shape, and impliedConds run: no access path, LIKE program or join order.
func (db *Database) Predicate(f *Facts, ch *Change) *Predicate {
	if f.reads == nil || ch.Whole() {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	a := f.reads.attribution(db)
	if a == nil || a.pinned {
		return nil
	}
	target := -1
	for k, rp := range a.rels {
		if rp.t == ch.t {
			if target >= 0 {
				return nil // read twice
			}
			target = k
		}
	}
	if target < 0 {
		return nil
	}
	sel := f.reads.sel
	safe := func(cond Expr) bool { return cond == nil || safeCond(cond, a.rels, f.args) }
	if !safe(sel.Where) {
		return nil
	}
	for _, tr := range sel.From {
		for _, jc := range tr.Joins {
			if !safe(jc.On) {
				return nil
			}
		}
	}
	rel := a.rels[target]
	conds := rel.conds // clipped: implied conjuncts go to a copy
	impliedConds(a.rels, a.joins, f.args, false, func(r int, col *ColumnRef, operand Expr, _ *stepCond) {
		if r == target {
			conds = append(conds, &Binary{Op: "=", L: col, R: operand})
		}
	})
	if len(conds) == 0 {
		return nil
	}
	p := &Predicate{rel: rel, f: f, conds: conds}
	for _, cond := range conds {
		if p.key, p.keyed = eqKey(cond, rel, f.args); p.keyed {
			break
		}
	}
	return p
}

// Matches reports whether img, a row image of ch, may satisfy p: every
// conjunct is true of it, or one raises an error (counted as a match, so
// that a direct execution's error is never hidden behind a cached result).
// An image of another layout than p is for always matches.
func (p *Predicate) Matches(ch *Change, img []Value) bool {
	if p == nil || ch.t != p.rel.t {
		return true
	}
	if p.fns == nil && !p.bad {
		cp := compiler{cols: p.rel.cols, params: p.f.args}
		p.fns = make([]predFn, len(p.conds))
		for j, cond := range p.conds {
			fn, err := cp.pred(cond)
			if err != nil {
				p.bad = true
				break
			}
			p.fns[j] = fn
		}
	}
	if p.bad {
		return true
	}
	match := true
	for _, c := range p.fns {
		t, err := c(img)
		if err != nil {
			return true
		}
		match = match && t == triTrue
	}
	return match
}

// Key returns the key of p's equality conjunct over a column of its
// table, the first one that has a key: no image whose ImageKey under that
// column differs satisfies p.
func (p *Predicate) Key() (EqKey, bool) {
	if p == nil {
		return EqKey{}, false
	}
	return p.key, p.keyed
}

// EqKey is a value of a column as an equality conjunct meets it, hashed:
// two values equal under Compare have one key. A number is keyed by its
// float64, which is how Compare meets an INTEGER and anything else
// numeric; a text by itself. The key of a conjunct's constant is the one
// the column's images are looked up under: a number, or a decimal text
// (Compare's coercion), against a numeric column; a text against a
// VARCHAR column. Any other constant has no key. Two unequal values may
// share a key: a key only narrows the entries a change is tested against.
type EqKey struct {
	col int
	h   uint64
}

// Column returns the column position the key is of.
func (k EqKey) Column() int { return k.col }

// ImageKey returns the key of img's value in column col; false for NULL,
// which no equality conjunct is true of.
func ImageKey(img []Value, col int) (EqKey, bool) {
	if col >= len(img) {
		return EqKey{}, false
	}
	switch v := img[col]; v.T {
	case TInt, TFloat:
		f, _ := v.AsFloat()
		return numKey(col, f), true
	case TString:
		return textKey(col, v.S), true
	}
	return EqKey{}, false
}

func numKey(col int, f float64) EqKey {
	if f == 0 {
		f = 0 // -0 is 0
	}
	return EqKey{col: col, h: math.Float64bits(f)}
}

func textKey(col int, s string) EqKey {
	return EqKey{col: col, h: maphash.String(groupSeed, s)}
}

// eqKey returns the key of cond when it is a column of rp compared for
// equality with a constant (indexableShape).
func eqKey(cond Expr, rp *relPlan, args []Value) (EqKey, bool) {
	sh, ok := indexableShape(cond)
	if !ok || sh.op != "=" {
		return EqKey{}, false
	}
	pos := columnForQual(rp.t, rp.qual, sh.col)
	if pos < 0 {
		return EqKey{}, false
	}
	v, err := evalConst(sh.operand, args)
	if err != nil {
		return EqKey{}, false
	}
	switch rp.t.Columns[pos].Type {
	case TInt, TFloat:
		if f, ok := v.AsFloat(); ok {
			return numKey(pos, f), true
		}
		if v.T == TString {
			if f, ok := decimal.Parse(v.S); ok {
				return numKey(pos, f), true
			}
		}
	case TString:
		if v.T == TString {
			return textKey(pos, v.S), true
		}
	}
	return EqKey{}, false
}

// operand classes of safeCond.
type opClass uint8

const (
	opNull opClass = iota
	opNum
	opDecimalText // a constant text that is a decimal number
	opText
	opBool
)

// safeCond reports whether cond cannot raise an error on any row of rels:
// a comparison, IN, LIKE or IS NULL of columns and constants whose types
// compare, and AND, OR and NOT of such.
func safeCond(cond Expr, rels []*relPlan, args []Value) bool {
	class := func(e Expr) (opClass, bool) {
		if c, ok := e.(*ColumnRef); ok {
			col, ok := baseColumn(c, rels)
			if !ok {
				return opNull, false
			}
			switch col.typ(rels) {
			case TInt, TFloat:
				return opNum, true
			case TString:
				return opText, true
			case TBool:
				return opBool, true
			}
			return opNull, false
		}
		if !constShaped(e) {
			return opNull, false
		}
		v, err := evalConst(e, args)
		if err != nil {
			return opNull, false
		}
		switch v.T {
		case TNull:
			return opNull, true
		case TInt, TFloat:
			return opNum, true
		case TString:
			if _, ok := decimal.Parse(v.S); ok {
				return opDecimalText, true
			}
			return opText, true
		}
		return opBool, true
	}
	compares := func(a, b Expr) bool {
		ca, ok := class(a)
		if !ok {
			return false
		}
		cb, ok := class(b)
		if !ok {
			return false
		}
		if ca > cb {
			ca, cb = cb, ca
		}
		switch {
		case ca == opNull, ca == cb:
			return true
		case ca == opNum:
			return cb == opDecimalText // a decimal text is a number; text is a column's or not one
		case ca == opDecimalText:
			return cb == opText // two texts
		}
		return false
	}
	switch x := cond.(type) {
	case *Binary:
		switch x.Op {
		case "AND", "OR":
			return safeCond(x.L, rels, args) && safeCond(x.R, rels, args)
		case "=", "<>", "<", "<=", ">", ">=":
			return compares(x.L, x.R)
		}
	case *Unary:
		return x.Op == "NOT" && safeCond(x.X, rels, args)
	case *LikeExpr:
		_, okX := class(x.X)
		_, okP := class(x.Pattern)
		return okX && okP
	case *IsNullExpr:
		_, ok := class(x.X)
		return ok
	case *InExpr:
		for _, it := range x.List {
			if !compares(x.X, it) {
				return false
			}
		}
		return true
	}
	return false
}
