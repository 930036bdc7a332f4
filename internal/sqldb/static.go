package sqldb

// This file is what static analysis asks the engine. internal/sqlsema
// lints SQL extracted from web macros without running it: Check binds a
// statement the way its execution would — the planner's own name
// resolution, under the catalog as it is — and returns the error the
// statement would fail with and the column each reference reads;
// IndexableShape, the planner's own test of what an index can
// serve, predicts sequential scans; SchemaSnapshot is the catalog with the
// planner's estimates. Nothing here executes a statement or writes, takes
// locks for longer than a plan, or exposes mutable engine state.

import "strings"

// Binding is what Check found the column references of a statement to
// name, for each one that binds: the relation of the FROM clause it reads
// and, for a column of a base table, that column.
type Binding map[*ColumnRef]BoundColumn

// BoundColumn is the column one reference reads.
type BoundColumn struct {
	Rel    string // the relation's lower-cased qualifier: its alias, or the table's name
	Table  string // the base table; "" for a derived table's column
	Column Column // the base table's column
}

func (b Binding) note(c *ColumnRef, ec envCol) {
	bc := BoundColumn{Rel: ec.tbl}
	if ec.base != nil {
		bc.Table, bc.Column = ec.base.Name, ec.base.Columns[ec.base.colIndex(ec.name)]
	}
	b[c] = bc
}

// Check binds st against the catalog as it is now and runs nothing. A
// query or a write — the target of an EXPLAIN too — is planned under a
// read snapshot as plain EXPLAIN plans it, and the error is the first one
// its execution would raise before looking at a row: a table that does
// not exist, or the first reference of the plan, in the order the
// executor reaches its stages, that does not bind. A ? is no error: it is
// bound only when the statement runs. DDL makes the catalog lookups its
// execution starts with. Transaction control checks nothing.
func (db *Database) Check(st Stmt) (Binding, error) {
	if x, ok := st.(*ExplainStmt); ok {
		st = x.Target
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	switch st.(type) {
	case *SelectStmt, *InsertStmt, *UpdateStmt, *DeleteStmt:
	default:
		_, _, err := db.lookupDDL(st)
		return nil, err
	}
	snap := db.mvcc.AcquireSnapshot()
	defer db.mvcc.ReleaseSnapshot(snap)
	vw := view{db: db, snap: snap, bind: Binding{}}
	p, err := vw.planStmt(st, nil)
	if err == nil {
		err = p.keptErr()
	}
	return vw.bind, err
}

// EvalConst evaluates an expression that reads no row, parameter or
// table, as a statement evaluates it: type checking asks it what the
// engine does with values of an operation's operand types.
func EvalConst(e Expr) (Value, error) { return evalConst(e, nil) }

// ExprOff returns the source offset of the first positioned node of e, or
// -1.
func ExprOff(e Expr) int {
	off := -1
	walkExpr(e, func(x Expr) bool {
		if off >= 0 {
			return false
		}
		switch n := x.(type) {
		case *Literal:
			off = n.Off
		case *ColumnRef:
			off = n.Off
		case *Param:
			off = n.Off
		case *FuncCall:
			off = n.Off
		}
		return off < 0
	})
	return off
}

// WalkExpr visits e and every sub-expression depth-first. The visitor
// returns false to prune a subtree. Subqueries are closed scopes: the
// *Subquery node itself is visited but its inner statement is not (its
// expressions bind against the subquery's own FROM).
func WalkExpr(e Expr, fn func(Expr) bool) { walkExpr(e, fn) }

// Conjuncts splits a boolean expression on top-level ANDs, exactly as the
// planner does before attributing predicates to scans. A nil expression
// yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	return andConjuncts(e)
}

// IndexShape is the one way a conjunct can drive an index scan: a column
// compared with an operand that is constant for the statement.
type IndexShape struct {
	Col     *ColumnRef
	Op      string // "=", "<", "<=", ">", ">=" (as if the column were on the left), or "like"
	Operand Expr   // the comparison operand, or the LIKE pattern
}

// IndexableShape classifies one conjunct the way the planner does before
// it looks at the catalog: col = const, const = col, a range comparison
// in either orientation, or col LIKE pattern without NOT or ESCAPE, where
// the operand references no column, aggregate or subquery. planIndexScan
// starts from this verdict, so what the linter predicts from it cannot
// drift from what the engine does. What remains for the caller needs a
// catalog and values: the column belongs to the scanned table and is
// indexed (VARCHAR for LIKE), the operand is not NULL and coerces to the
// column type, and the LIKE pattern has an IndexablePrefix.
func IndexableShape(conj Expr) (IndexShape, bool) {
	switch x := conj.(type) {
	case *Binary:
		flipped, ok := flipComparison(x.Op)
		if !ok {
			return IndexShape{}, false
		}
		if c, ok := x.L.(*ColumnRef); ok {
			return IndexShape{Col: c, Op: x.Op, Operand: x.R}, constShaped(x.R)
		}
		if c, ok := x.R.(*ColumnRef); ok {
			return IndexShape{Col: c, Op: flipped, Operand: x.L}, constShaped(x.L)
		}
	case *LikeExpr:
		if c, ok := x.X.(*ColumnRef); ok && !x.Not && x.Escape == nil {
			return IndexShape{Col: c, Op: "like", Operand: x.Pattern}, constShaped(x.Pattern)
		}
	}
	return IndexShape{}, false
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
// column references, aggregates or subqueries. Parameters qualify.
func constShaped(e Expr) bool {
	ok := true
	walkExpr(e, func(x Expr) bool {
		switch n := x.(type) {
		case *ColumnRef, *Subquery:
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

// IndexablePrefix returns the literal prefix of a LIKE pattern that an
// index range scan can use: the pattern must end in % and contain no
// other wildcard. ok is false when the pattern cannot be served by an
// index seek.
func IndexablePrefix(pattern string) (prefix string, ok bool) {
	return compileLike(pattern, "", false).prefix()
}

// SchemaIndex describes one index in a schema snapshot.
type SchemaIndex struct {
	Name     string
	Column   string
	Unique   bool
	Distinct int64 // distinct keys currently in the tree
}

// SchemaTable describes one table in a schema snapshot: its column
// definitions, its indexes, and the planner's current row estimate.
type SchemaTable struct {
	Name    string
	Columns []Column
	Indexes []SchemaIndex
	EstRows int64
}

// Column returns the named column (any case), or nil.
func (t *SchemaTable) Column(name string) *Column {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return &t.Columns[i]
		}
	}
	return nil
}

// IndexOn returns an index covering the named column, preferring a unique
// one (the access path the planner would pick first), or nil.
func (t *SchemaTable) IndexOn(col string) *SchemaIndex {
	var found *SchemaIndex
	for i := range t.Indexes {
		if !strings.EqualFold(t.Indexes[i].Column, col) {
			continue
		}
		if t.Indexes[i].Unique {
			return &t.Indexes[i]
		}
		if found == nil {
			found = &t.Indexes[i]
		}
	}
	return found
}

// SchemaSnapshot returns a point-in-time copy of the catalog — tables in
// sorted name order with columns, indexes, and planner row estimates. It
// is the live-catalog schema source for static analysis (gatewayd's lint
// preflight, sqlsh's \d and \check) and shares the estimates the cost
// model plans with.
func (db *Database) SchemaSnapshot() []SchemaTable {
	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()

	out := make([]SchemaTable, 0, len(tables))
	for _, t := range tables {
		st := SchemaTable{
			Name:    t.Name,
			Columns: append([]Column(nil), t.Columns...),
			EstRows: int64(estTableRows(t)),
		}
		t.mu.RLock()
		for _, ix := range t.indexes {
			st.Indexes = append(st.Indexes, SchemaIndex{
				Name:     ix.Name,
				Column:   ix.Column,
				Unique:   ix.Unique,
				Distinct: ix.distinct.Load(),
			})
		}
		t.mu.RUnlock()
		out = append(out, st)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Name > out[j].Name; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
