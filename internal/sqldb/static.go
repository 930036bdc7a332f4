package sqldb

import "strings"

// This file exports read-only views of the parser, catalog, and planner
// internals for static analysis. internal/sqlsema resolves and type-checks
// SQL extracted from web macros against either a DDL file (parsed with this
// package's parser) or a live catalog (via SchemaSnapshot), and mirrors the
// cost model's access-path reasoning to predict sequential scans without
// executing anything. Nothing here takes locks for longer than a snapshot
// copy, and nothing exposes mutable engine state.

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

// IsAggregateFunc reports whether name (any case) is an aggregate
// function in this engine.
func IsAggregateFunc(name string) bool { return isAggregate(strings.ToUpper(name)) }

// IndexablePrefix returns the literal prefix of a LIKE pattern that an
// index range scan can use, mirroring the executor's access-path rule: the
// pattern must end in % and contain no other wildcard. ok is false when
// the pattern cannot be served by an index seek.
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
