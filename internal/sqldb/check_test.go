package sqldb

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

const checkSchema = `
CREATE TABLE customers (custid INTEGER PRIMARY KEY, name VARCHAR NOT NULL, city VARCHAR);
CREATE INDEX customers_city ON customers (city);
CREATE TABLE orders (orderid INTEGER PRIMARY KEY, custid INTEGER, total DOUBLE);
INSERT INTO customers VALUES (1, 'Ada', 'Austin'), (2, 'Grace', 'Boston');
INSERT INTO orders VALUES (10, 1, 2.5), (11, 2, 4.0)`

func checkDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("CHECK")
	if _, err := NewSession(db).ExecScript(checkSchema); err != nil {
		t.Fatal(err)
	}
	return db
}

// engineState is everything Check must leave as it found it.
type engineState struct {
	dump              string
	commitSeq         uint64
	commits, aborts   uint64
	versions          []uint64
	tables            []TableStats
	schema            []SchemaTable
	activeSnapshots   int
	oldestSnapshotAge int64
}

func stateOf(t *testing.T, db *Database) engineState {
	t.Helper()
	var dump bytes.Buffer
	if err := db.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	tx := db.TxnStats()
	return engineState{
		dump:      dump.String(),
		commitSeq: tx.CommitSeq, commits: tx.Commits, aborts: tx.Rollbacks + tx.Conflicts,
		versions:          db.AppendTableVersions(nil, []string{"customers", "orders"}),
		tables:            db.TableStatsSnapshot(),
		schema:            db.SchemaSnapshot(),
		activeSnapshots:   tx.ActiveSnapshots,
		oldestSnapshotAge: int64(tx.OldestSnapshotAge),
	}
}

// TestCheckHasNoSideEffects: Check plans, it does not execute. Over every
// kind of statement, ones that bind and ones that do not, the data, the
// catalog, the commit sequence, every table's version, row and scan counts
// and the live snapshots are what they were, and no snapshot is left
// registered.
func TestCheckHasNoSideEffects(t *testing.T) {
	db := checkDB(t)
	before := stateOf(t, db)
	for _, src := range []string{
		"SELECT c.name, o.total FROM customers c JOIN orders o ON c.custid = o.custid WHERE c.city = 'Austin'",
		"SELECT nosuch FROM customers",
		"SELECT name FROM customers WHERE custid IN (?, 2)",
		"INSERT INTO customers VALUES (3, 'Edsger', 'Nuenen')",
		"INSERT INTO customers (custid, nosuch) VALUES (3, 'x')",
		"INSERT INTO customers (custid, name) VALUES (1, 'duplicate key')",
		"UPDATE customers SET city = 'Paris' WHERE custid = 1",
		"UPDATE customers SET nosuch = 1",
		"DELETE FROM orders",
		"DELETE FROM nosuch",
		"EXPLAIN ANALYZE DELETE FROM orders WHERE custid = 1",
		"CREATE TABLE scratch (a INTEGER PRIMARY KEY)",
		"CREATE TABLE customers (a INTEGER)",
		"DROP TABLE orders",
		"DROP TABLE nosuch",
		"CREATE INDEX orders_total ON orders (total)",
		"CREATE INDEX customers_city ON customers (name)",
		"DROP INDEX customers_city",
		"DROP INDEX nosuch",
		"BEGIN",
		"COMMIT",
	} {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		db.Check(st)
		if after := stateOf(t, db); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: Check changed the engine:\nbefore %+v\n after %+v", src, before, after)
			before = after
		}
	}
	if tx := db.TxnStats(); tx.ActiveSnapshots != 0 || tx.OldestSnapshotAge != 0 {
		t.Errorf("a snapshot outlives Check: %+v", tx)
	}
}

// TestCheckReturnsTheEnginesError: what Check returns is the error the
// statement fails with when it runs — code, message and the position of
// the name that does not bind — and the column every reference names.
func TestCheckReturnsTheEnginesError(t *testing.T) {
	db := checkDB(t)
	for _, tc := range []struct {
		src, code, at string
	}{
		{"SELECT c.name, o.total FROM customers c, orders o WHERE c.custid = o.custid", "", ""},
		{"SELECT nosuch FROM customers", CodeUndefinedColumn, "nosuch"},
		{"SELECT name FROM nosuch", CodeUndefinedTable, "nosuch"},
		{"SELECT custid FROM customers, orders", CodeAmbiguousColumn, "custid"},
		{"SELECT customers.name FROM customers c", CodeUndefinedColumn, "customers.name"},
		{"SELECT name FROM customers ORDER BY 3", CodeSyntax, "3"},
		{"SELECT name FROM customers WHERE custid IN (nope, 1)", CodeUndefinedColumn, "nope"},
		{"SELECT name FROM customers d WHERE d.y = 1", CodeUndefinedColumn, "d.y"},
		{"INSERT INTO customers (custid, nosuch) VALUES (3, 'x')", CodeUndefinedColumn, "nosuch"},
		{"INSERT INTO customers (custid, name) VALUES (3, 'x', 'y')", CodeCardinality, "3"},
		{"INSERT INTO customers (custid, custid) VALUES (3, 4)", CodeSyntax, "custid)"},
		{"INSERT INTO customers VALUES (3, name, 'x')", CodeUndefinedColumn, "name"},
		{"UPDATE customers SET nosuch = 1 WHERE custid = ?", CodeUndefinedColumn, "nosuch"},
		{"DELETE FROM customers WHERE nope = ?", CodeUndefinedColumn, "nope"},
		{"DELETE FROM nosuch", CodeUndefinedTable, "nosuch"},
		{"CREATE INDEX i ON customers (nosuch)", CodeUndefinedColumn, "nosuch"},
		{"DROP INDEX nosuch", CodeUndefinedIndex, "nosuch"},
		{"DROP TABLE IF EXISTS nosuch", "", ""},
	} {
		st, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		_, _, checked := db.Check(st)
		var ce *Error
		switch {
		case tc.code == "" && checked != nil:
			t.Errorf("%s: Check = %v, want no error", tc.src, checked)
		case tc.code == "":
		case !errors.As(checked, &ce) || ce.Code != tc.code:
			t.Errorf("%s: Check = %v, want SQLSTATE %s", tc.src, checked, tc.code)
		case ce.Off != strings.LastIndex(tc.src, tc.at)+1:
			t.Errorf("%s: Check's error at %d, want %d (%q)", tc.src, ce.Off, strings.LastIndex(tc.src, tc.at)+1, tc.at)
		default:
			// The statement, run, fails with the same error.
			s := NewSession(db)
			s.BeginTxn()
			_, ran := s.ExecStmt(st, NewInt(1))
			s.Rollback()
			if ran == nil || ran.Error() != checked.Error() {
				t.Errorf("%s: Check = %v, the statement run = %v", tc.src, checked, ran)
			}
		}
	}

	st, _ := Parse("SELECT c.name, o.total FROM customers c JOIN orders o ON c.custid = o.custid")
	bind, _, err := db.Check(st)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]BoundColumn{}
	for ref, col := range bind {
		got[ref.Table+"."+ref.Column] = col
	}
	if len(got) != 4 || got["c.name"].Rel != "c" || got["c.name"].Table != "customers" ||
		got["o.total"].Column.Type != TFloat || got["o.custid"].Rel != "o" {
		t.Errorf("binding = %+v", got)
	}
}

// TestBindErrorsAtPlanTime: the target columns and the arity of an INSERT
// are checked when the statement is planned, so plain EXPLAIN — which
// plans and runs nothing — reports them.
func TestBindErrorsAtPlanTime(t *testing.T) {
	s := NewSession(checkDB(t))
	for src, code := range map[string]string{
		"EXPLAIN INSERT INTO customers (nosuch) VALUES (1)":       CodeUndefinedColumn,
		"EXPLAIN INSERT INTO customers (custid, name) VALUES (1)": CodeCardinality,
	} {
		_, err := s.Exec(src)
		var se *Error
		if !errors.As(err, &se) || se.Code != code {
			t.Errorf("%s: %v, want SQLSTATE %s", src, err, code)
		}
	}
}
