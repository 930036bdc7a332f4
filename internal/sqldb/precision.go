package sqldb

import (
	"hash/maphash"
	"math"
	"strings"

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
// The predicate of a table is derived once per statement shape, from the
// parse the plan cache keeps (readSet), and compiled per text with the
// text's extracted values bound, by the compiler the executor uses
// (Database.Predicate). The whole table stands in for it — every row
// matches — where the argument above does not hold or cannot be checked:
// a LEFT join, a table read twice, no conjunct of the table's own, and a
// condition of the statement that could raise an error on some row (the
// direct execution might then fail where the cached result stands; a
// statement whose every condition compares columns and constants of
// comparable types cannot).

// readSet is what a cacheable SELECT's shape says of the rows it reads.
type readSet struct {
	rels   []relRef    // the relations of FROM, in order
	filter []Expr      // every top-level conjunct of WHERE and of each ON
	reads  []tableRead // parallel to Facts.Tables
}

// relRef is one relation of a FROM clause: its lower-cased table name and
// the lower-cased qualifier its columns are referred to by.
type relRef struct{ table, qual string }

// tableRead is what a row of one table must satisfy to take part in the
// result: conj, over the columns of the relation qual; or with whole set,
// nothing the shape can say.
type tableRead struct {
	qual  string
	conj  []Expr
	whole bool
}

// readSetOf derives sel's read set over tables, stmtFacts' list of the
// tables it reads.
func readSetOf(sel *SelectStmt, tables []string) *readSet {
	rs := &readSet{filter: appendConjuncts(nil, sel.Where)}
	left := false
	add := func(table, alias string) {
		qual := alias
		if qual == "" {
			qual = table
		}
		rs.rels = append(rs.rels, relRef{strings.ToLower(table), strings.ToLower(qual)})
	}
	for _, tr := range sel.From {
		add(tr.Table, tr.Alias)
		for _, j := range tr.Joins {
			add(j.Table, j.Alias)
			left = left || j.Kind == JoinLeft
			rs.filter = appendConjuncts(rs.filter, j.On)
		}
	}
	rs.reads = make([]tableRead, len(tables))
	for i, t := range tables {
		r := &rs.reads[i]
		n := 0
		for _, rel := range rs.rels {
			if rel.table == t {
				n, r.qual = n+1, rel.qual
			}
		}
		if left || n != 1 {
			r.whole = true
			continue
		}
		for _, cond := range rs.filter {
			if rs.over(cond, r.qual) {
				r.conj = append(r.conj, cond)
			}
		}
		r.whole = len(r.conj) == 0
	}
	return rs
}

// over reports whether every column cond refers to is one of the relation
// qual's, and it calls no aggregate: an unqualified column is the
// relation's only when it is the one relation of the statement.
func (rs *readSet) over(cond Expr, qual string) bool {
	ok := true
	walkExpr(cond, func(x Expr) bool {
		if !ok {
			return false
		}
		switch n := x.(type) {
		case *ColumnRef:
			if n.Table == "" {
				ok = len(rs.rels) == 1
			} else {
				ok = strings.ToLower(n.Table) == qual
			}
		case *FuncCall:
			ok = !isAggregate(n.Name)
		}
		return ok
	})
	return ok
}

// Predicate is a cached read's condition on the rows of one table it
// read, for the layout of a change's images. The nil Predicate is the
// whole table: every row matches it. Its conjuncts are compiled at the
// first image it is asked about, so a predicate whose key keeps images
// away is never compiled; a Predicate is not safe for concurrent use.
type Predicate struct {
	t     *Table
	f     *Facts   // the read's, which the Predicate is kept beside
	conj  []predFn // compiled by Matches
	key   EqKey
	i     int32 // the table's index in f.Tables
	keyed bool
	bad   bool // a conjunct did not compile: every row matches
}

// Predicate returns f's condition on the rows of f.Tables[i] for the
// images of ch, with the text's extracted values bound: nil, the whole
// table, when the read set says nothing of the table, ch is a change of
// the whole table, or a condition of the statement could raise an error
// (safeCond). f is a cacheable SELECT's facts, from StatementFacts; the
// Predicate refers to it, and must not outlive it. The layouts the
// conditions are checked against are ch's for the table and the catalog's
// for the others: a catalog change that makes them differ bumps both
// tables as a whole, and the entry goes on that change.
func (db *Database) Predicate(f *Facts, i int, ch *Change) *Predicate {
	if f.reads == nil || ch.Whole() || f.reads.reads[i].whole {
		return nil
	}
	rs, r := f.reads, &f.reads.reads[i]
	db.mu.RLock()
	defer db.mu.RUnlock()
	colType := func(c *ColumnRef) (Type, bool) {
		qual := strings.ToLower(c.Table)
		for _, rel := range rs.rels {
			if qual != "" && rel.qual != qual {
				continue
			}
			t := ch.t
			if rel.table != f.Tables[i] {
				t = db.tables[rel.table]
			}
			if t == nil {
				return TNull, false
			}
			if pos := t.colIndex(c.Column); pos >= 0 {
				return t.Columns[pos].Type, true
			}
		}
		return TNull, false
	}
	for _, cond := range rs.filter {
		if !safeCond(cond, colType, f.args) {
			return nil
		}
	}
	p := &Predicate{t: ch.t, f: f, i: int32(i)}
	for _, cond := range r.conj {
		if p.key, p.keyed = eqKeyOf(cond, ch.t, r.qual, f.args); p.keyed {
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
	if p == nil || ch.t != p.t {
		return true
	}
	if p.conj == nil && !p.bad {
		r := &p.f.reads.reads[p.i]
		cp := compiler{cols: p.t.layout(r.qual), params: p.f.args}
		p.conj = make([]predFn, len(r.conj))
		for j, cond := range r.conj {
			fn, err := cp.pred(cond)
			if err != nil {
				p.bad = true
				break
			}
			p.conj[j] = fn
		}
	}
	if p.bad {
		return true
	}
	match := true
	for _, c := range p.conj {
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

// eqKeyOf returns the key of cond when it is col = constant over a column
// of t, the relation qual.
func eqKeyOf(cond Expr, t *Table, qual string, args []Value) (EqKey, bool) {
	b, ok := cond.(*Binary)
	if !ok || b.Op != "=" {
		return EqKey{}, false
	}
	col, other := b.L, b.R
	if _, ok := col.(*ColumnRef); !ok {
		col, other = other, col
	}
	c, ok := col.(*ColumnRef)
	if !ok || !constShaped(other) {
		return EqKey{}, false
	}
	pos := columnForQual(t, qual, c)
	if pos < 0 {
		return EqKey{}, false
	}
	v, err := evalConst(other, args)
	if err != nil {
		return EqKey{}, false
	}
	switch t.Columns[pos].Type {
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

// safeCond reports whether cond cannot raise an error on any row: a
// comparison, IN, LIKE or IS NULL of columns and
// constants whose types compare, and AND, OR and NOT of such.
func safeCond(cond Expr, colType func(*ColumnRef) (Type, bool), args []Value) bool {
	class := func(e Expr) (opClass, bool) {
		if c, ok := e.(*ColumnRef); ok {
			t, ok := colType(c)
			switch t {
			case TInt, TFloat:
				return opNum, ok
			case TString:
				return opText, ok
			case TBool:
				return opBool, ok
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
			return safeCond(x.L, colType, args) && safeCond(x.R, colType, args)
		case "=", "<>", "<", "<=", ">", ">=":
			return compares(x.L, x.R)
		}
	case *Unary:
		return x.Op == "NOT" && safeCond(x.X, colType, args)
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
