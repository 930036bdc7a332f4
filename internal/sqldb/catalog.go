package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"db2www/internal/sqldb/mvcc"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Type       Type
	NotNull    bool
	PrimaryKey bool
	Default    Value // Null when no default
	HasDefault bool
}

// rowVersion is one version of a row's values. Chains run newest-first:
// head is the most recent version (possibly pending), prev the one it
// superseded. Chain links and vals are guarded by the table latch; the
// visibility metadata is stamped by commit without the latch, which is
// why it lives in atomics (mvcc.Meta).
type rowVersion struct {
	meta mvcc.Meta
	vals []Value
	prev *rowVersion
}

// storedRow is one logical row: a stable ID plus its version chain. Row
// IDs are unique per table for the table's lifetime and never reused,
// which keeps index posting lists unambiguous.
type storedRow struct {
	id   int64
	head *rowVersion
}

// visibleVersion resolves the row against a snapshot: the newest version
// visible to txn at snap, or nil when the row does not exist for that
// reader. The caller holds the table latch (shared is enough).
func (r *storedRow) visibleVersion(txn *mvcc.Txn, snap uint64) *rowVersion {
	for v := r.head; v != nil; v = v.prev {
		if v.meta.Visible(txn, snap) {
			return v
		}
	}
	return nil
}

// unlink removes version v from the chain, returning false when v was
// already gone (vacuum may race an abort to the same garbage; both run
// under the exclusive table latch, so the bool keeps index posting
// removal exactly-once). Caller holds the exclusive table latch.
func (r *storedRow) unlink(v *rowVersion) bool {
	if r.head == v {
		r.head = v.prev
		return true
	}
	for c := r.head; c != nil; c = c.prev {
		if c.prev == v {
			c.prev = v.prev
			return true
		}
	}
	return false
}

// Table is an in-memory heap of versioned rows plus its secondary
// indexes. The latch guards the heap slices, chain links, and index
// structures; statements hold it only for short scan or apply phases,
// never across expression evaluation.
type Table struct {
	Name    string
	Columns []Column

	// layouts are the row layouts planRel has built for the table, one
	// per qualifier (its name or an alias), the first maxLayouts only. A
	// table's columns never change once it is created, so neither does a
	// layout, and every plan shares them.
	layouts atomic.Pointer[[]tableLayout]

	mu      sync.RWMutex
	rows    []*storedRow
	byID    map[int64]*storedRow
	nextID  int64
	indexes []*Index

	// pending counts uncommitted version creations plus delete intents
	// on this table. DROP TABLE refuses to retire the table while another
	// transaction's pending versions are present.
	pending atomic.Int64

	// Access counters, maintained unconditionally (plain atomics are
	// cheap enough to keep accurate even with the obs registry off).
	// rowsRead counts rows a scan returned after visibility resolution;
	// the DML counters count logical row effects, not versions.
	seqScans     atomic.Int64
	idxScans     atomic.Int64
	rowsRead     atomic.Int64
	rowsInserted atomic.Int64
	rowsUpdated  atomic.Int64
	rowsDeleted  atomic.Int64

	// Planner statistics, refreshed by vacuum sweeps: statRows is the
	// visible row count at the last sweep, statIns/statDel the
	// rowsInserted/rowsDeleted readings at that moment. estTableRows
	// extrapolates between sweeps from the counters' drift, latch-free.
	statRows atomic.Int64
	statIns  atomic.Int64
	statDel  atomic.Int64
}

// Index is a single-column secondary index backed by a B-tree. Postings
// are a multiset over versions: every version of a row contributes its
// key, so index scans over-approximate any snapshot's row set and the
// caller re-applies the full WHERE clause. NULL keys stay out of the
// tree (and out of uniqueness checking, per SQL), counted per row so
// version add/remove stays balanced.
type Index struct {
	Name   string
	Table  string
	Column string
	Unique bool
	colPos int
	tree   *btree
	nulls  map[int64]int

	// scans counts index-routed scans that used this index. distinct
	// tracks the tree's distinct-key count so the planner can estimate
	// per-column cardinality without taking the table latch.
	scans    atomic.Int64
	distinct atomic.Int64
}

// colIndex returns the position of name in the table's columns, or -1.
// Column name matching is case-insensitive, as in SQL.
func (t *Table) colIndex(name string) int {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return i
		}
	}
	return -1
}

// ColumnNames returns the declared column names in order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i := range t.Columns {
		names[i] = t.Columns[i].Name
	}
	return names
}

// RowCount returns the number of rows visible to a fresh snapshot
// (committed, not deleted). Pending versions do not count.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, r := range t.rows {
		if r.visibleVersion(nil, ^uint64(0)) != nil {
			n++
		}
	}
	return n
}

// appendRow allocates a new row whose initial version is pending in
// txn, maintaining indexes. Caller holds the exclusive table latch and
// has already checked uniqueness.
func (t *Table) appendRow(vals []Value, txn *mvcc.Txn) *storedRow {
	t.nextID++
	v := &rowVersion{vals: vals}
	v.meta.InitPending(txn)
	row := &storedRow{id: t.nextID, head: v}
	t.rows = append(t.rows, row)
	t.byID[row.id] = row
	for _, ix := range t.indexes {
		ix.addVersion(row.id, v)
	}
	return row
}

// removeRows drops fully-dead rows (empty chains) from the heap,
// preserving ID order. Caller holds the exclusive table latch; all
// index postings were removed when the last version was unlinked.
func (t *Table) removeRows(dead map[int64]bool) {
	if len(dead) == 0 {
		return
	}
	kept := t.rows[:0]
	for _, r := range t.rows {
		if dead[r.id] && r.head == nil {
			delete(t.byID, r.id)
			continue
		}
		kept = append(kept, r)
	}
	for i := len(kept); i < len(t.rows); i++ {
		t.rows[i] = nil
	}
	t.rows = kept
}

func (ix *Index) addVersion(rowID int64, v *rowVersion) {
	key := v.vals[ix.colPos]
	if key.IsNull() {
		ix.nulls[rowID]++
		return
	}
	ix.tree.insert(key, rowID)
	// Mirror the tree's distinct-key count into an atomic (we hold the
	// table latch; planner reads don't).
	ix.distinct.Store(int64(ix.tree.size))
}

func (ix *Index) removeVersion(rowID int64, v *rowVersion) {
	key := v.vals[ix.colPos]
	if key.IsNull() {
		if n := ix.nulls[rowID] - 1; n <= 0 {
			delete(ix.nulls, rowID)
		} else {
			ix.nulls[rowID] = n
		}
		return
	}
	ix.tree.delete(key, rowID)
	ix.distinct.Store(int64(ix.tree.size))
}

// keyCurrently reports whether the row currently claims key at column
// pos for uniqueness purposes: some version that is (or may yet become)
// the row's live state carries the key. The second result distinguishes
// a claim held only by another transaction's uncommitted write, which
// callers surface as a retryable conflict rather than a hard violation.
// Caller holds the table latch.
func (r *storedRow) keyCurrently(pos int, key Value, txn *mvcc.Txn) (claimed, pendingOther bool) {
	for v := r.head; v != nil; v = v.prev {
		if c := v.meta.Creator(); c != nil {
			if c.Aborted() {
				continue
			}
			if d := v.meta.Deleter(); d == c {
				continue // created and superseded by the same txn
			}
			if IdentityEqual(v.vals[pos], key) {
				return true, c != txn
			}
			continue
		}
		// Newest committed version decides; older history is irrelevant.
		if v.meta.End() != 0 {
			return false, false
		}
		if d := v.meta.Deleter(); d != nil && !d.Aborted() {
			if d == txn {
				return false, false // we deleted it; the key frees on commit
			}
			if IdentityEqual(v.vals[pos], key) {
				// A concurrent delete might abort and keep the claim.
				return true, true
			}
			return false, false
		}
		return IdentityEqual(v.vals[pos], key), false
	}
	return false, false
}

// checkUnique verifies key can be written at ix's column without
// violating uniqueness, ignoring selfID's own row. Caller holds the
// exclusive table latch.
func (t *Table) checkUnique(ix *Index, key Value, selfID int64, txn *mvcc.Txn) error {
	if key.IsNull() {
		return nil
	}
	for _, id := range ix.tree.lookup(key) {
		if id == selfID {
			continue
		}
		row, ok := t.byID[id]
		if !ok {
			continue
		}
		claimed, pendingOther := row.keyCurrently(ix.colPos, key, txn)
		if !claimed {
			continue
		}
		if pendingOther {
			return errConflict(fmt.Sprintf(
				"key %q of unique index %q is claimed by a concurrent uncommitted transaction",
				key.String(), ix.Name))
		}
		return &Error{Code: CodeUniqueViolation,
			Message: fmt.Sprintf("duplicate key value %q violates unique index %q",
				key.String(), ix.Name)}
	}
	return nil
}

// writeCheck resolves the version a write by txn would supersede,
// enforcing first-committer-wins: a row whose newest live state is a
// concurrent transaction's pending write, or a commit after txn's
// snapshot, is a serialization conflict. A (nil, nil) result means the
// row is no longer a target (e.g. txn already deleted it) and the write
// silently skips it. Caller holds the exclusive table latch.
func (t *Table) writeCheck(row *storedRow, txn *mvcc.Txn, snap uint64) (*rowVersion, error) {
	for v := row.head; v != nil; v = v.prev {
		if c := v.meta.Creator(); c != nil {
			if c.Aborted() {
				continue
			}
			if c != txn {
				return nil, errConflict(fmt.Sprintf(
					"row in table %q was written by a concurrent transaction", t.Name))
			}
			if v.meta.Deleter() == txn {
				return nil, nil
			}
			return v, nil
		}
		if v.meta.Begin() > snap {
			return nil, errConflict(fmt.Sprintf(
				"row in table %q was modified after this transaction's snapshot", t.Name))
		}
		if d := v.meta.Deleter(); d != nil && !d.Aborted() {
			if d == txn {
				return nil, nil
			}
			return nil, errConflict(fmt.Sprintf(
				"row in table %q is being deleted by a concurrent transaction", t.Name))
		}
		if e := v.meta.End(); e != 0 {
			if e > snap {
				return nil, errConflict(fmt.Sprintf(
					"row in table %q was deleted after this transaction's snapshot", t.Name))
			}
			return nil, nil
		}
		return v, nil
	}
	return nil, nil
}

// buildIndex creates an Index over an existing table's rows, adding one
// posting per version. Unique validation considers only each row's
// current claim (newest committed live version or a pending write); a
// clash involving an uncommitted version reports a retryable conflict.
func buildIndex(t *Table, name, column string, unique bool) (*Index, error) {
	pos := t.colIndex(column)
	if pos < 0 {
		return nil, errUndefinedColumn(column)
	}
	ix := &Index{
		Name:   name,
		Table:  t.Name,
		Column: t.Columns[pos].Name,
		Unique: unique,
		colPos: pos,
		tree:   newBTree(),
		nulls:  map[int64]int{},
	}
	claims := map[Value]bool{}
	for _, row := range t.rows {
		for v := row.head; v != nil; v = v.prev {
			if c := v.meta.Creator(); c != nil && c.Aborted() {
				continue
			}
			ix.addVersion(row.id, v)
		}
		if !unique {
			continue
		}
		cur := row.currentClaimVersion()
		if cur == nil {
			continue
		}
		key := cur.vals[pos]
		if key.IsNull() {
			continue
		}
		k := groupKey(key)
		if claims[k] {
			if cur.meta.Creator() != nil {
				return nil, errConflict(fmt.Sprintf(
					"cannot create unique index %q: key %q is claimed by an uncommitted transaction",
					name, key.String()))
			}
			return nil, &Error{Code: CodeUniqueViolation,
				Message: fmt.Sprintf("cannot create unique index %q: duplicate key %q",
					name, key.String())}
		}
		claims[k] = true
	}
	ix.distinct.Store(int64(ix.tree.size))
	return ix, nil
}

// currentClaimVersion returns the version that holds the row's current
// (or prospective) state: a live pending write, else the newest
// committed live version. Nil when the row is dead or dying.
func (r *storedRow) currentClaimVersion() *rowVersion {
	for v := r.head; v != nil; v = v.prev {
		if c := v.meta.Creator(); c != nil {
			if c.Aborted() || v.meta.Deleter() == c {
				continue
			}
			return v
		}
		if v.meta.End() != 0 {
			return nil
		}
		if d := v.meta.Deleter(); d != nil && !d.Aborted() {
			return nil
		}
		return v
	}
	return nil
}

// TableStats is a point-in-time summary of one table's access activity
// and MVCC storage health, shown on /server-status ("Storage") and
// exported as per-table metrics. The storage figures (rows, versions,
// chain depth) come from walking every chain under the shared latch, so
// the snapshot is for status pages and debugging, not hot paths.
type TableStats struct {
	Name            string       `json:"name"`
	Rows            int          `json:"rows"`      // visible to a fresh snapshot
	Versions        int          `json:"versions"`  // total chain entries, incl. pending
	MaxChain        int          `json:"max_chain"` // deepest version chain
	SeqScans        int64        `json:"seq_scans"`
	IndexScans      int64        `json:"index_scans"`
	RowsRead        int64        `json:"rows_read"`
	RowsInserted    int64        `json:"rows_inserted"`
	RowsUpdated     int64        `json:"rows_updated"`
	RowsDeleted     int64        `json:"rows_deleted"`
	ConflictRetries uint64       `json:"conflict_retries"`
	Indexes         []IndexStats `json:"indexes,omitempty"`
}

// IndexStats is one index's identity and usage count.
type IndexStats struct {
	Name   string `json:"name"`
	Column string `json:"column"`
	Unique bool   `json:"unique"`
	Scans  int64  `json:"scans"`
}

// TableStatsSnapshot returns per-table access counters and storage
// health for every table, sorted by name.
func (db *Database) TableStatsSnapshot() []TableStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	keys := make([]string, 0, len(db.tables))
	for k := range db.tables {
		keys = append(keys, k)
	}
	sortStrings(keys)
	out := make([]TableStats, 0, len(keys))
	for _, k := range keys {
		t := db.tables[k]
		st := TableStats{
			Name:         t.Name,
			SeqScans:     t.seqScans.Load(),
			IndexScans:   t.idxScans.Load(),
			RowsRead:     t.rowsRead.Load(),
			RowsInserted: t.rowsInserted.Load(),
			RowsUpdated:  t.rowsUpdated.Load(),
			RowsDeleted:  t.rowsDeleted.Load(),
		}
		if v, ok := db.tableRetries.Load(k); ok {
			st.ConflictRetries = v.(*atomic.Uint64).Load()
		}
		t.mu.RLock()
		for _, r := range t.rows {
			n := 0
			for v := r.head; v != nil; v = v.prev {
				n++
			}
			st.Versions += n
			if n > st.MaxChain {
				st.MaxChain = n
			}
			if r.visibleVersion(nil, ^uint64(0)) != nil {
				st.Rows++
			}
		}
		for _, ix := range t.indexes {
			st.Indexes = append(st.Indexes, IndexStats{
				Name:   ix.Name,
				Column: ix.Column,
				Unique: ix.Unique,
				Scans:  ix.scans.Load(),
			})
		}
		t.mu.RUnlock()
		out = append(out, st)
	}
	return out
}

// indexOn returns the first index whose key column is at position pos,
// preferring unique indexes.
func (t *Table) indexOn(pos int) *Index {
	var found *Index
	for _, ix := range t.indexes {
		if ix.colPos != pos {
			continue
		}
		if ix.Unique {
			return ix
		}
		if found == nil {
			found = ix
		}
	}
	return found
}

// tableLayout is the row layout of a table read under a qualifier.
type tableLayout struct {
	qual string
	cols []envCol
}

// maxLayouts bounds the layouts a table keeps: aliases come from statement
// text, and a client may send any number of them.
const maxLayouts = 8

// layout returns the layout of t's rows read under qual, which nothing
// writes to.
func (t *Table) layout(qual string) []envCol {
	cur := t.layouts.Load()
	if cur != nil {
		for _, l := range *cur {
			if l.qual == qual {
				return l.cols
			}
		}
	}
	cols := make([]envCol, len(t.Columns))
	for i := range t.Columns {
		cols[i] = envCol{tbl: qual, name: strings.ToLower(t.Columns[i].Name), base: t}
	}
	if cur == nil || len(*cur) < maxLayouts {
		var next []tableLayout
		if cur != nil {
			next = append(next, *cur...)
		}
		next = append(next, tableLayout{qual: qual, cols: cols})
		t.layouts.CompareAndSwap(cur, &next)
	}
	return cols
}
