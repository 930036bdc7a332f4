package sqldb

// This file is what static analysis asks the engine. internal/sqlsema
// lints SQL extracted from web macros without running it: Check plans a
// statement the way its execution would — the planner's own name
// resolution and access-path choices, under the catalog as it is — and
// returns the error the statement would fail with, the column each
// reference reads, and what the plan decides about reading tables
// (PlanSummary); SchemaSnapshot is the catalog with the planner's
// estimates. Nothing here executes a statement or writes, takes locks for
// longer than a plan, or exposes mutable engine state.

import (
	"slices"
	"strings"
)

// Binding is what Check found the column references of a statement to
// name, for each one that binds: the relation of the FROM clause it reads
// and, for a column of a base table, that column.
type Binding map[*ColumnRef]BoundColumn

// BoundColumn is the column one reference reads.
type BoundColumn struct {
	Rel    string // the relation's lower-cased qualifier: its alias, or the table's name
	Table  string // the base table
	Column Column // the base table's column
}

func (b Binding) note(c *ColumnRef, ec envCol) {
	b[c] = BoundColumn{Rel: ec.tbl, Table: ec.base.Name, Column: ec.base.Columns[ec.base.colIndex(ec.name)]}
}

// Check binds st against the catalog as it is now and runs nothing. A
// query or a write — the target of an EXPLAIN too — is planned once under
// a read snapshot as plain EXPLAIN plans it, except that a ?, which has no
// value until the statement runs, is planned as an index key of unknown
// value. The error is the first one its execution would raise before
// looking at a row: a table that does not exist, or the first reference of
// the plan, in the order the executor reaches its stages, that does not
// bind. The summary is the plan's, nil when there is none. DDL makes the
// catalog lookups its execution starts with. Transaction control checks
// nothing.
func (db *Database) Check(st Stmt) (Binding, *PlanSummary, error) {
	if x, ok := st.(*ExplainStmt); ok {
		st = x.Target
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	switch st.(type) {
	case *SelectStmt, *InsertStmt, *UpdateStmt, *DeleteStmt:
	default:
		_, _, err := db.lookupDDL(st)
		return nil, nil, err
	}
	snap := db.mvcc.AcquireSnapshot()
	defer db.mvcc.ReleaseSnapshot(snap)
	vw := view{db: db, snap: snap, bind: Binding{}, sum: &PlanSummary{}}
	p, err := vw.planStmt(st, nil)
	if err != nil {
		return vw.bind, nil, err
	}
	return vw.bind, vw.sum, p.keptErr()
}

// PlanSummary is what a plan decides about reading tables, read-only:
// every scan of a base table — a relation of a FROM clause or the target
// of an UPDATE or DELETE — and every join step that multiplies its inputs
// with no condition in a FROM clause that writes no CROSS JOIN.
type PlanSummary struct {
	Scans    []ScanSummary
	Products []ProductStep
	verdicts []ScanCond // planIndexScan's, on every conjunct a scan's access was chosen among
}

// ScanSummary is one scan of a base table.
type ScanSummary struct {
	Table   string // the table's name in the catalog
	Qual    string // its lower-cased qualifier
	Off     int    // source offset of the relation
	EstRows int64  // the planner's estimate of the table's rows
	Index   string // the index the scan reads through; "" for a sequential scan
	// Conds are the conjuncts of the WHERE clause and of inner joins' ONs
	// that name only this relation, in the order they are written.
	Conds []ScanCond
}

// ScanCond is one conjunct that names only its scan's relation, with the
// planner's verdict on routing the scan through it.
type ScanCond struct {
	Expr    Expr
	Why     Verdict
	Column  string // the column it compares; "" for VerdictNoShape and VerdictPinned
	Index   string // VerdictNoPrefix: the index on Column the pattern cannot use; "" when none
	Pattern string // VerdictNoPrefix: the LIKE pattern
}

// Verdict is planIndexScan's answer for one conjunct of a scan, or why
// the conjunct never reached it.
type Verdict int

const (
	VerdictIndexable Verdict = iota // an index can serve it
	VerdictNoShape                  // not a column of the scan compared with a constant that is not NULL
	VerdictNoIndex                  // no index on the column
	VerdictNoPrefix                 // a LIKE pattern without a literal prefix
	VerdictKeyType                  // the key does not convert to the column's type: the statement fails when it runs
	VerdictPinned                   // not pushed to the scan: a LEFT JOIN pins the FROM clause to its written order
)

// ProductStep is a join step that multiplies its inputs with no condition.
type ProductStep struct {
	Name   string // the base table that joins on the step's right
	Off    int    // its source offset
	Rows   int64  // the product of the estimated rows of the FROM clause's relations
	Pinned bool   // a comma of a FROM clause a LEFT JOIN pins: its WHERE filters only above the product
}

// from summarises fp, the plan of the FROM clause from, once planQuery
// has planned it. Each scan's conditions are its relation's own conds as
// written, each with the verdict planIndexScan gave it when planAccess
// weighed it for the scan; it weighs every one unless the FROM clause is
// pinned. A FROM clause that writes a CROSS JOIN has no product steps to
// report.
func (s *PlanSummary) from(fp *fromPlan, from []TableRef) {
	cross := false
	for _, tr := range from {
		for _, jc := range tr.Joins {
			cross = cross || jc.Kind == JoinCross
		}
	}
	for _, rp := range fp.rels {
		sc := ScanSummary{Table: rp.t.Name, Qual: rp.qual, Off: rp.off, EstRows: int64(rp.baseRows)}
		if rp.access != nil {
			sc.Index = rp.access.ix.Name
		}
		for _, conj := range rp.conds[:len(rp.conds)-rp.nImplied] {
			c := ScanCond{Expr: conj, Why: VerdictPinned}
			for _, v := range s.verdicts {
				if v.Expr == conj {
					c = v
				}
			}
			sc.Conds = append(sc.Conds, c)
		}
		s.Scans = append(s.Scans, sc)
	}
	// Both plans are left-deep along the product steps: a free plan joins
	// one relation a step, a pinned one multiplies its comma-listed entries.
	for n, ok := fp.root.(*joinPlan); ok && !cross; n, ok = n.left.(*joinPlan) {
		if n.kind != JoinCross {
			continue
		}
		right := n.right
		for j, ok := right.(*joinPlan); ok; j, ok = right.(*joinPlan) {
			right = j.left
		}
		rp := right.(*relPlan)
		step := ProductStep{Name: rp.t.Name, Off: rp.off, Rows: 1, Pinned: !fp.free}
		for _, r := range fp.rels {
			step.Rows *= int64(r.baseRows)
		}
		s.Products = append(s.Products, step)
	}
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

// SchemaSnapshot returns a point-in-time copy of the catalog — tables in
// sorted name order with columns, indexes, and planner row estimates. It
// is the live-catalog schema source for static analysis (gatewayd's lint
// preflight, sqlsh's \d and \check) and shares the estimates the cost
// model plans with.
func (db *Database) SchemaSnapshot() []SchemaTable {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]SchemaTable, 0, len(db.tables))
	for _, t := range db.tables {
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
	slices.SortFunc(out, func(a, b SchemaTable) int { return strings.Compare(a.Name, b.Name) })
	return out
}
