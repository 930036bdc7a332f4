package sqldb

import (
	"fmt"
	"strings"
)

// execUnion evaluates a UNION chain: each arm runs as an independent
// SELECT; the combined rows are de-duplicated unless every combining
// operator is UNION ALL; ORDER BY (by output column name or ordinal) and
// LIMIT/OFFSET then apply to the whole result. Column names come from
// the first arm, as in SQL.
func (vw view) execUnion(up *selectPlan) (*Result, error) {
	res, err := vw.execSelectSingle(up.arms[0])
	if err != nil {
		return nil, err
	}
	for _, ap := range up.arms[1:] {
		arm, err := vw.execSelectSingle(ap)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, arm.Rows...)
	}
	if up.dedupe {
		res.Rows = up.dedupeRows(res.Rows)
	}
	if up.stagesErr != nil {
		return nil, up.stagesErr
	}
	if nk := len(up.order); nk > 0 {
		perm, err := sortOrder(sortKeys{nk: nk, rows: res.Rows, slots: columnSlots(up.order)}, up.orderBy)
		if err != nil {
			return nil, err
		}
		sorted := make([][]Value, len(perm))
		for k, i := range perm {
			sorted[k] = res.Rows[i]
		}
		res.Rows = sorted
	}
	from, to, err := up.limit.cut(len(res.Rows))
	if err != nil {
		return nil, err
	}
	res.Rows = res.Rows[from:to]
	res.RowsAffected = int64(len(res.Rows))
	return res, nil
}

// cloneForUndo deep-copies a table so ALTER TABLE can be rolled back
// wholesale. Only committed history clones: pending versions belong to
// the altering transaction itself (the pending guard excludes everyone
// else) and would be aborted by the same rollback that restores the
// clone, so they are dropped; delete intents likewise. Committed
// begin/end stamps copy so restored chains keep their snapshot
// visibility. Caller holds t.mu exclusively.
func (t *Table) cloneForUndo() *Table {
	c := &Table{
		Name:    t.Name,
		Columns: append([]Column(nil), t.Columns...),
		byID:    make(map[int64]*storedRow, len(t.byID)),
		nextID:  t.nextID,
	}
	for _, r := range t.rows {
		nr := &storedRow{id: r.id}
		var tail *rowVersion
		for v := r.head; v != nil; v = v.prev {
			if v.meta.Creator() != nil {
				continue // pending (or aborted): not part of committed history
			}
			nv := &rowVersion{vals: append([]Value(nil), v.vals...)}
			nv.meta.CopyStampsFrom(&v.meta)
			if tail == nil {
				nr.head = nv
			} else {
				tail.prev = nv
			}
			tail = nv
		}
		if nr.head == nil {
			continue // row existed only as uncommitted versions
		}
		c.rows = append(c.rows, nr)
		c.byID[nr.id] = nr
	}
	for _, ix := range t.indexes {
		nix, err := buildIndex(c, ix.Name, ix.Column, ix.Unique)
		if err != nil {
			// The source index was consistent; rebuilding cannot fail.
			panic("sqldb: cloneForUndo index rebuild: " + err.Error())
		}
		c.indexes = append(c.indexes, nix)
	}
	return c
}

// execAlterTable applies ADD COLUMN, DROP COLUMN, or RENAME TO.
// Column changes rewrite every version of every chain in place, which
// is only safe while no other transaction holds pending versions on the
// table (guardPending); the altering transaction's own pending versions
// rewrite along with the rest. Rollback restores a pre-image snapshot
// of the committed history.
func (db *Database) execAlterTable(tx *txnState, at *AlterTableStmt) (*Result, error) {
	t, _, err := db.lookupDDL(at)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := guardPending(t, tx, "alter"); err != nil {
		return nil, err
	}
	snapshot := t.cloneForUndo()

	eachVersion := func(fn func(*rowVersion)) {
		for _, r := range t.rows {
			for v := r.head; v != nil; v = v.prev {
				fn(v)
			}
		}
	}

	switch {
	case at.AddColumn != nil:
		cd := at.AddColumn
		col := Column{Name: cd.Name, Type: cd.Type, NotNull: cd.NotNull}
		fill := Null
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
			fill = cv
		}
		if col.NotNull && fill.IsNull() && len(t.rows) > 0 {
			return nil, &Error{Code: CodeNotNullViolation,
				Message: fmt.Sprintf("cannot add NOT NULL column %q without a default to a non-empty table", cd.Name)}
		}
		t.Columns = append(t.Columns, col)
		eachVersion(func(v *rowVersion) {
			v.vals = append(v.vals, fill)
		})
	case at.DropColumn != "":
		pos := t.colIndex(at.DropColumn)
		t.Columns = append(t.Columns[:pos:pos], t.Columns[pos+1:]...)
		eachVersion(func(v *rowVersion) {
			v.vals = append(v.vals[:pos:pos], v.vals[pos+1:]...)
		})
		for _, ix := range t.indexes {
			if ix.colPos > pos {
				ix.colPos--
			}
		}
	case at.RenameTo != "":
		delete(db.tables, strings.ToLower(t.Name))
		t.Name = at.RenameTo
		db.tables[strings.ToLower(at.RenameTo)] = t
		for _, ix := range t.indexes {
			ix.Table = at.RenameTo
		}
	}
	tx.logDDL(undoRec{kind: undoAlterTable, table: t.Name,
		alterOldName: snapshot.Name, droppedTable: snapshot})
	return &Result{}, nil
}
