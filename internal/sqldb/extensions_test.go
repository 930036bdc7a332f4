package sqldb

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// --- subqueries ---

func TestScalarSubquery(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s,
		"SELECT product_name FROM products WHERE price = (SELECT MAX(price) FROM products)")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "bikes road" {
		t.Fatalf("rows = %v", rowsAsStrings(res))
	}
}

func TestScalarSubqueryInSelectList(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT (SELECT COUNT(*) FROM urldb), custid FROM products LIMIT 1")
	if res.Rows[0][0].I != 5 {
		t.Fatalf("subquery value = %v", res.Rows[0][0])
	}
}

func TestScalarSubqueryCardinalityErrors(t *testing.T) {
	s := mustSession(t)
	_, err := s.Exec("SELECT (SELECT custid FROM products)")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeCardinality {
		t.Fatalf("multi-row scalar subquery: err = %v", err)
	}
	_, err = s.Exec("SELECT (SELECT custid, qty FROM products WHERE custid = 10200)")
	if !errors.As(err, &e) || e.Code != CodeCardinality {
		t.Fatalf("multi-column scalar subquery: err = %v", err)
	}
}

func TestScalarSubqueryEmptyIsNull(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT (SELECT custid FROM products WHERE custid = 0)")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("empty scalar subquery = %v, want NULL", res.Rows[0][0])
	}
}

func TestInSubquery(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "CREATE TABLE vip (custid INTEGER)")
	mustExec(t, s, "INSERT INTO vip VALUES (10100), (10300)")
	res := mustExec(t, s,
		"SELECT COUNT(*) FROM products WHERE custid IN (SELECT custid FROM vip)")
	if res.Rows[0][0].I != 4 {
		t.Fatalf("IN subquery count = %v, want 4", res.Rows[0][0])
	}
	res = mustExec(t, s,
		"SELECT COUNT(*) FROM products WHERE custid NOT IN (SELECT custid FROM vip)")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("NOT IN subquery count = %v, want 1", res.Rows[0][0])
	}
}

func TestNotInSubqueryWithNullIsUnknown(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "CREATE TABLE maybe (custid INTEGER)")
	mustExec(t, s, "INSERT INTO maybe VALUES (10100), (NULL)")
	// NOT IN against a set containing NULL is never true.
	res := mustExec(t, s,
		"SELECT COUNT(*) FROM products WHERE custid NOT IN (SELECT custid FROM maybe)")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("NOT IN with NULL = %v, want 0 (three-valued logic)", res.Rows[0][0])
	}
}

func TestExistsSubquery(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT COUNT(*) FROM urldb WHERE EXISTS (SELECT 1 FROM products)")
	if res.Rows[0][0].I != 5 {
		t.Fatalf("EXISTS true = %v", res.Rows[0][0])
	}
	res = mustExec(t, s,
		"SELECT COUNT(*) FROM urldb WHERE NOT EXISTS (SELECT 1 FROM products WHERE custid = 0)")
	if res.Rows[0][0].I != 5 {
		t.Fatalf("NOT EXISTS = %v", res.Rows[0][0])
	}
}

func TestSubqueryInUpdate(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s,
		"UPDATE products SET price = (SELECT MIN(price) FROM products) WHERE custid = 10200")
	res := mustExec(t, s, "SELECT price FROM products WHERE custid = 10200")
	if res.Rows[0][0].F != 15.25 {
		t.Fatalf("price = %v", res.Rows[0][0])
	}
}

// --- UNION ---

func TestUnionDedupes(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, `
SELECT custid FROM products WHERE custid < 10300
UNION
SELECT custid FROM products
ORDER BY custid`)
	if len(res.Rows) != 3 {
		t.Fatalf("UNION rows = %d, want 3 distinct: %v", len(res.Rows), rowsAsStrings(res))
	}
	if res.Rows[0][0].I != 10100 || res.Rows[2][0].I != 10300 {
		t.Fatalf("order = %v", rowsAsStrings(res))
	}
}

func TestUnionAllKeepsDuplicates(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s,
		"SELECT custid FROM products UNION ALL SELECT custid FROM products")
	if len(res.Rows) != 10 {
		t.Fatalf("UNION ALL rows = %d, want 10", len(res.Rows))
	}
}

func TestUnionOrderByOrdinalAndLimit(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, `
SELECT product_name, price FROM products WHERE custid = 10100
UNION ALL
SELECT product_name, price FROM products WHERE custid = 10300
ORDER BY 2 DESC LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].F != 899.0 {
		t.Fatalf("top price = %v", res.Rows[0][1])
	}
}

func TestUnionColumnCountMismatch(t *testing.T) {
	s := mustSession(t)
	_, err := s.Exec("SELECT custid FROM products UNION SELECT custid, qty FROM products")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeCardinality {
		t.Fatalf("err = %v", err)
	}
}

func TestUnionOfLiterals(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT 1 UNION SELECT 2 UNION SELECT 1 ORDER BY 1")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 || res.Rows[1][0].I != 2 {
		t.Fatalf("rows = %v", rowsAsStrings(res))
	}
}

// --- ALTER TABLE ---

func TestAlterTableAddColumn(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "ALTER TABLE products ADD COLUMN discount DOUBLE DEFAULT 0.1")
	res := mustExec(t, s, "SELECT discount FROM products WHERE custid = 10100")
	if res.Rows[0][0].F != 0.1 {
		t.Fatalf("default fill = %v", res.Rows[0][0])
	}
	mustExec(t, s, "ALTER TABLE products ADD note VARCHAR(20)")
	res = mustExec(t, s, "SELECT note FROM products WHERE custid = 10100")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("nullable fill = %v", res.Rows[0][0])
	}
	// New column is writable.
	mustExec(t, s, "UPDATE products SET note = 'sale' WHERE custid = 10100")
	res = mustExec(t, s, "SELECT COUNT(*) FROM products WHERE note = 'sale'")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestAlterTableAddNotNullWithoutDefaultFails(t *testing.T) {
	s := mustSession(t)
	_, err := s.Exec("ALTER TABLE products ADD x INTEGER NOT NULL")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeNotNullViolation {
		t.Fatalf("err = %v", err)
	}
}

func TestAlterTableDropColumn(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "ALTER TABLE products DROP COLUMN qty")
	if _, err := s.Exec("SELECT qty FROM products"); err == nil {
		t.Fatal("dropped column still selectable")
	}
	res := mustExec(t, s, "SELECT product_name, price FROM products WHERE custid = 10100 ORDER BY price")
	if len(res.Rows) != 2 || res.Rows[0][1].F != 329.99 {
		t.Fatalf("remaining columns corrupted: %v", rowsAsStrings(res))
	}
}

func TestAlterTableDropIndexedColumnFails(t *testing.T) {
	s := mustSession(t)
	_, err := s.Exec("ALTER TABLE urldb DROP COLUMN url")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeFeature {
		t.Fatalf("err = %v", err)
	}
}

func TestAlterTableDropColumnFixesIndexPositions(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "CREATE INDEX qty_ix ON products (qty)")
	mustExec(t, s, "ALTER TABLE products DROP COLUMN price")
	// qty moved left by one; the index must still find rows.
	res := mustExec(t, s, "SELECT COUNT(*) FROM products WHERE qty = 10")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("index after column drop = %v", res.Rows[0][0])
	}
}

func TestAlterTableRename(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "ALTER TABLE products RENAME TO inventory")
	if _, err := s.Exec("SELECT * FROM products"); err == nil {
		t.Fatal("old name still resolves")
	}
	res := mustExec(t, s, "SELECT COUNT(*) FROM inventory")
	if res.Rows[0][0].I != 5 {
		t.Fatalf("renamed table count = %v", res.Rows[0][0])
	}
}

func TestAlterTableRollback(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "ALTER TABLE products ADD extra INTEGER DEFAULT 7")
	mustExec(t, s, "ALTER TABLE products RENAME TO prods2")
	mustExec(t, s, "ROLLBACK")
	if _, err := s.Exec("SELECT extra FROM products"); err == nil {
		t.Fatal("added column survived rollback")
	}
	res := mustExec(t, s, "SELECT COUNT(*) FROM products")
	if res.Rows[0][0].I != 5 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	// Primary-key-free products has a custid scan; verify urldb's index
	// still works via its own rollback path.
	res = mustExec(t, s, "SELECT title FROM urldb WHERE url = 'http://www.eso.org'")
	if len(res.Rows) != 1 {
		t.Fatal("unrelated index broken after ALTER rollback")
	}
}

// --- persistence ---

func TestDumpRestoreRoundTrip(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "CREATE INDEX price_ix ON products (price)")
	var buf bytes.Buffer
	if err := s.db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, want := range []string{"CREATE TABLE products", "CREATE TABLE urldb",
		"PRIMARY KEY", "CREATE INDEX price_ix"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	db2 := NewDatabase("RESTORED")
	if err := Restore(db2, strings.NewReader(dump)); err != nil {
		t.Fatalf("restore: %v\ndump:\n%s", err, dump)
	}
	s2 := NewSession(db2)
	for _, q := range []string{
		"SELECT COUNT(*) FROM urldb",
		"SELECT COUNT(*) FROM products",
		"SELECT SUM(qty) FROM products",
	} {
		a := mustExec(t, s, q)
		b := mustExec(t, s2, q)
		if a.Rows[0][0] != b.Rows[0][0] {
			t.Errorf("%s: %v vs %v", q, a.Rows[0][0], b.Rows[0][0])
		}
	}
	// Indexes restored and functional.
	res := mustExec(t, s2, "SELECT title FROM urldb WHERE url = 'http://www.eso.org'")
	if len(res.Rows) != 1 {
		t.Fatal("pk index not restored")
	}
	// Dumps of original and restored databases are identical.
	var buf2 bytes.Buffer
	if err := db2.Dump(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != dump {
		t.Error("dump is not a fixed point")
	}
}

func TestDumpQuotesSpecialValues(t *testing.T) {
	db := NewDatabase("Q")
	s := NewSession(db)
	if _, err := s.ExecScript(`CREATE TABLE odd ("desc" VARCHAR(40), n INTEGER)`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "INSERT INTO odd VALUES ('it''s a \"test\"', NULL)")
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase("Q2")
	if err := Restore(db2, &buf); err != nil {
		t.Fatalf("restore: %v", err)
	}
	s2 := NewSession(db2)
	res := mustExec(t, s2, `SELECT "desc", n FROM odd`)
	if res.Rows[0][0].S != `it's a "test"` || !res.Rows[0][1].IsNull() {
		t.Fatalf("round trip = %v", res.Rows[0])
	}
}

func TestDumpRestoreFile(t *testing.T) {
	s := mustSession(t)
	path := t.TempDir() + "/snap.sql"
	if err := s.db.DumpToFile(path); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase("F")
	if err := RestoreFromFile(db2, path); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(db2)
	res := mustExec(t, s2, "SELECT COUNT(*) FROM urldb")
	if res.Rows[0][0].I != 5 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

// TestDumpToFileFailureKeepsOldDump: -save is the whole persistence story,
// so a dump that fails half-way — the writer errors — leaves the previous
// file byte-identical and no temp file beside it; and a bare relative
// name dumps into the working directory.
func TestDumpToFileFailureKeepsOldDump(t *testing.T) {
	s := mustSession(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.sql")
	if err := s.db.DumpToFile(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil || len(old) == 0 {
		t.Fatalf("first dump: %d bytes, %v", len(old), err)
	}
	mustExec(t, s, "DELETE FROM urldb")
	diskFull := errors.New("disk full")
	err = writeFileAtomic(path, func(w io.Writer) error {
		var buf bytes.Buffer
		if err := s.db.Dump(&buf); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()[:buf.Len()/2]); err != nil {
			return err
		}
		return diskFull
	})
	if !errors.Is(err, diskFull) {
		t.Fatalf("a dump whose writer fails returned %v", err)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Errorf("the failed dump changed the previous file (%v)", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".dump-*")); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := s.db.DumpToFile("bare.sql"); err != nil {
		t.Fatalf("bare relative name: %v", err)
	}
	db2 := NewDatabase("BARE")
	if err := RestoreFromFile(db2, filepath.Join(dir, "bare.sql")); err != nil {
		t.Fatal(err)
	}
	if res := mustExec(t, NewSession(db2), "SELECT COUNT(*) FROM urldb"); res.Rows[0][0].I != 0 {
		t.Errorf("restored %v urldb rows, want the emptied table", res.Rows[0][0])
	}
}

// TestDumpRestorePropertyLarge round-trips a generated dataset.
func TestDumpRestorePropertyLarge(t *testing.T) {
	db := NewDatabase("BIG")
	s := NewSession(db)
	if _, err := s.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, a DOUBLE, b VARCHAR(50), c BOOLEAN)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := s.Exec("INSERT INTO t VALUES (?, ?, ?, ?)",
			NewInt(int64(i)), NewFloat(float64(i)*1.5),
			NewString(strings.Repeat("x'y\"z", i%5)), NewBool(i%3 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase("BIG2")
	if err := Restore(db2, &buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(db2)
	a := mustExec(t, s, "SELECT id, a, b, c FROM t ORDER BY id")
	b := mustExec(t, s2, "SELECT id, a, b, c FROM t ORDER BY id")
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if identityKey(a.Rows[i]) != identityKey(b.Rows[i]) {
			t.Fatalf("row %d: %v vs %v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// --- derived tables ---

func TestDerivedTable(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, `
SELECT d.custid, d.total
FROM (SELECT custid, SUM(price * qty) AS total FROM products GROUP BY custid) d
WHERE d.total > 400 ORDER BY d.total DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", rowsAsStrings(res))
	}
	if res.Rows[0][0].I != 10100 {
		t.Fatalf("top spender = %v", res.Rows[0][0])
	}
}

func TestDerivedTableJoin(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, `
SELECT p.product_name, agg.n
FROM products p
JOIN (SELECT custid, COUNT(*) AS n FROM products GROUP BY custid) agg
  ON p.custid = agg.custid
WHERE agg.n > 1
ORDER BY p.product_name`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", rowsAsStrings(res))
	}
}

func TestDerivedTableRequiresAlias(t *testing.T) {
	s := mustSession(t)
	_, err := s.Exec("SELECT * FROM (SELECT 1)")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeSyntax {
		t.Fatalf("err = %v", err)
	}
}

func TestDerivedTableStar(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT * FROM (SELECT custid, qty FROM products WHERE qty > 5) big")
	if len(res.Columns) != 2 || len(res.Rows) != 2 {
		t.Fatalf("cols=%v rows=%v", res.Columns, rowsAsStrings(res))
	}
}

func TestNestedDerivedTables(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, `
SELECT outer2.m FROM (
  SELECT MAX(total) AS m FROM (
    SELECT custid, SUM(qty) AS total FROM products GROUP BY custid
  ) inner2
) outer2`)
	if res.Rows[0][0].I != 10 {
		t.Fatalf("m = %v", res.Rows[0][0])
	}
}

// --- clock functions ---

func TestClockFunctions(t *testing.T) {
	s := mustSession(t)
	fixed := time.Date(1996, time.June, 4, 10, 30, 45, 0, time.UTC)
	s.db.SetClock(func() time.Time { return fixed })
	res := mustExec(t, s, "SELECT NOW(), CURDATE(), CURTIME()")
	if res.Rows[0][0].S != "1996-06-04 10:30:45" {
		t.Errorf("NOW() = %v", res.Rows[0][0])
	}
	if res.Rows[0][1].S != "1996-06-04" {
		t.Errorf("CURDATE() = %v", res.Rows[0][1])
	}
	if res.Rows[0][2].S != "10:30:45" {
		t.Errorf("CURTIME() = %v", res.Rows[0][2])
	}
	// Timestamps are ordinary strings: they store, compare, and index.
	mustExec(t, s, "CREATE TABLE log (at VARCHAR(20), msg VARCHAR(20))")
	mustExec(t, s, "INSERT INTO log VALUES (NOW(), 'hello')")
	res = mustExec(t, s, "SELECT COUNT(*) FROM log WHERE at >= '1996-01-01'")
	if res.Rows[0][0].I != 1 {
		t.Errorf("timestamp compare = %v", res.Rows[0][0])
	}
	if _, err := s.Exec("SELECT NOW(1)"); err == nil {
		t.Error("NOW with arguments must fail")
	}
}
