package sqldb

import (
	"errors"
	"testing"
)

// mustSession returns a session on a fresh database pre-loaded with the
// paper's urldb table (Appendix A schema) and a small products table.
func mustSession(t *testing.T) *Session {
	t.Helper()
	db := NewDatabase("CELDIAL")
	s := NewSession(db)
	script := `
CREATE TABLE urldb (
  url VARCHAR(255) NOT NULL PRIMARY KEY,
  title VARCHAR(255),
  description VARCHAR(1024)
);
INSERT INTO urldb VALUES
  ('http://www.ibm.com', 'IBM Corporation', 'IBM home page'),
  ('http://www.ibm.com/db2', 'DB2 Product Family', 'DB2 database products'),
  ('http://www.ncsa.uiuc.edu', 'NCSA', 'Common Gateway Interface home'),
  ('http://www.eso.org', 'European Southern Observatory', 'WDB gateway'),
  ('http://www.oracle.com', 'Oracle Inc', NULL);
CREATE TABLE products (
  custid INTEGER,
  product_name VARCHAR(64),
  price DOUBLE,
  qty INTEGER
);
INSERT INTO products VALUES
  (10100, 'bikes mountain', 329.99, 3),
  (10100, 'bikes road', 899.0, 1),
  (10200, 'helmets', 45.5, 10),
  (10300, 'bikes kids', 120.0, 2),
  (10300, 'locks', 15.25, 7);
`
	if _, err := s.ExecScript(script); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return s
}

func mustExec(t *testing.T, s *Session, sql string, params ...Value) *Result {
	t.Helper()
	res, err := s.Exec(sql, params...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func rowsAsStrings(res *Result) [][]string {
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]string, len(r))
		for j, v := range r {
			row[j] = v.String()
		}
		out[i] = row
	}
	return out
}

func TestSelectStar(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT * FROM urldb")
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	want := []string{"url", "title", "description"}
	for i, c := range res.Columns {
		if c != want[i] {
			t.Errorf("column %d = %q, want %q", i, c, want[i])
		}
	}
}

func TestSelectWhereLike(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT url FROM urldb WHERE url LIKE '%ibm%'")
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2: %v", len(res.Rows), rowsAsStrings(res))
	}
}

func TestSelectWherePaperExample(t *testing.T) {
	// The exact statement shape built by the Section 3.1.3 macro.
	s := mustSession(t)
	res := mustExec(t, s,
		"SELECT product_name FROM products WHERE custid = 10100 AND product_name LIKE 'bikes%'")
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

func TestOrderBy(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT title FROM urldb ORDER BY title")
	got := rowsAsStrings(res)
	want := []string{"DB2 Product Family", "European Southern Observatory",
		"IBM Corporation", "NCSA", "Oracle Inc"}
	for i, w := range want {
		if got[i][0] != w {
			t.Errorf("row %d = %q, want %q", i, got[i][0], w)
		}
	}
}

func TestOrderByDescAndOrdinal(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT custid, price FROM products ORDER BY 2 DESC")
	if res.Rows[0][1].Float() != 899.0 {
		t.Fatalf("first price = %v, want 899", res.Rows[0][1])
	}
}

func TestOrderByAlias(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT price * qty AS total FROM products ORDER BY total DESC")
	f, _ := res.Rows[0][0].AsFloat()
	if f != 989.97 {
		t.Fatalf("top total = %v, want 989.97", f)
	}
}

func TestAggregates(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s,
		"SELECT custid, COUNT(*), SUM(qty), MIN(price), MAX(price) FROM products GROUP BY custid ORDER BY custid")
	if len(res.Rows) != 3 {
		t.Fatalf("got %d groups, want 3", len(res.Rows))
	}
	r0 := res.Rows[0]
	if r0[0].I != 10100 || r0[1].I != 2 || r0[2].I != 4 {
		t.Errorf("group 10100 = %v", rowsAsStrings(res)[0])
	}
	if r0[3].Float() != 329.99 || r0[4].Float() != 899.0 {
		t.Errorf("min/max wrong: %v", rowsAsStrings(res)[0])
	}
}

func TestAggregateOverEmptySet(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT COUNT(*), SUM(qty) FROM products WHERE custid = 99999")
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	if res.Rows[0][0].I != 0 {
		t.Errorf("COUNT(*) = %v, want 0", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull() {
		t.Errorf("SUM over empty set = %v, want NULL", res.Rows[0][1])
	}
}

func TestJoin(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "CREATE TABLE customers (custid INTEGER PRIMARY KEY, name VARCHAR(64))")
	mustExec(t, s, `INSERT INTO customers VALUES (10100, 'Acme'), (10200, 'Globex'), (10400, 'Initech')`)
	res := mustExec(t, s, `
SELECT c.name, p.product_name
FROM customers c JOIN products p ON c.custid = p.custid
ORDER BY c.name, p.product_name`)
	if len(res.Rows) != 3 {
		t.Fatalf("inner join rows = %d, want 3: %v", len(res.Rows), rowsAsStrings(res))
	}
	left := mustExec(t, s, `
SELECT c.name, p.product_name
FROM customers c LEFT JOIN products p ON c.custid = p.custid
ORDER BY c.name`)
	if len(left.Rows) != 4 {
		t.Fatalf("left join rows = %d, want 4", len(left.Rows))
	}
	// Initech has no products: padded with NULL.
	last := left.Rows[len(left.Rows)-1]
	if last[0].S != "Initech" || !last[1].IsNull() {
		t.Errorf("left-join pad = %v", last)
	}
}

func TestCommaJoin(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s,
		"SELECT COUNT(*) FROM urldb, products")
	if res.Rows[0][0].I != 25 {
		t.Fatalf("cross product = %v, want 25", res.Rows[0][0])
	}
}

func TestUpdateAndDelete(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "UPDATE products SET qty = qty + 1 WHERE custid = 10100")
	if res.RowsAffected != 2 {
		t.Fatalf("updated %d, want 2", res.RowsAffected)
	}
	check := mustExec(t, s, "SELECT SUM(qty) FROM products WHERE custid = 10100")
	if check.Rows[0][0].I != 6 {
		t.Errorf("after update sum = %v, want 6", check.Rows[0][0])
	}
	del := mustExec(t, s, "DELETE FROM products WHERE custid = 10300")
	if del.RowsAffected != 2 {
		t.Fatalf("deleted %d, want 2", del.RowsAffected)
	}
	left := mustExec(t, s, "SELECT COUNT(*) FROM products")
	if left.Rows[0][0].I != 3 {
		t.Errorf("remaining = %v, want 3", left.Rows[0][0])
	}
}

func TestNullSemantics(t *testing.T) {
	s := mustSession(t)
	// NULL never equals anything.
	res := mustExec(t, s, "SELECT url FROM urldb WHERE description = description")
	if len(res.Rows) != 4 {
		t.Fatalf("self-equality rows = %d, want 4 (NULL row excluded)", len(res.Rows))
	}
	res = mustExec(t, s, "SELECT url FROM urldb WHERE description IS NULL")
	if len(res.Rows) != 1 {
		t.Fatalf("IS NULL rows = %d, want 1", len(res.Rows))
	}
	res = mustExec(t, s, "SELECT url FROM urldb WHERE description IS NOT NULL")
	if len(res.Rows) != 4 {
		t.Fatalf("IS NOT NULL rows = %d, want 4", len(res.Rows))
	}
}

func TestInBetween(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT COUNT(*) FROM products WHERE custid IN (10100, 10300)")
	if res.Rows[0][0].I != 4 {
		t.Fatalf("IN count = %v, want 4", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM products WHERE price >= 40 AND price <= 400")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("range count = %v, want 3", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM products WHERE custid NOT IN (10100)")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("NOT IN count = %v, want 3", res.Rows[0][0])
	}
}

func TestParams(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT title FROM urldb WHERE url = ?",
		NewString("http://www.ibm.com"))
	if len(res.Rows) != 1 || res.Rows[0][0].S != "IBM Corporation" {
		t.Fatalf("param query = %v", rowsAsStrings(res))
	}
}

func TestUniqueViolation(t *testing.T) {
	s := mustSession(t)
	_, err := s.Exec("INSERT INTO urldb VALUES ('http://www.ibm.com', 'dup', 'dup')")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeUniqueViolation {
		t.Fatalf("err = %v, want unique violation", err)
	}
}

func TestNotNullViolation(t *testing.T) {
	s := mustSession(t)
	_, err := s.Exec("INSERT INTO urldb (title) VALUES ('no url')")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeNotNullViolation {
		t.Fatalf("err = %v, want not-null violation", err)
	}
}

func TestUndefinedTableAndColumn(t *testing.T) {
	s := mustSession(t)
	_, err := s.Exec("SELECT * FROM nosuch")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeUndefinedTable {
		t.Fatalf("err = %v, want undefined table", err)
	}
	_, err = s.Exec("SELECT nosuch FROM urldb")
	if !errors.As(err, &e) || e.Code != CodeUndefinedColumn {
		t.Fatalf("err = %v, want undefined column", err)
	}
}

func TestSyntaxError(t *testing.T) {
	s := mustSession(t)
	_, err := s.Exec("SELEC * FROM urldb")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeSyntax {
		t.Fatalf("err = %v, want syntax error", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	s := mustSession(t)
	_, err := s.Exec("SELECT 1/0")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeDivisionByZero {
		t.Fatalf("err = %v, want division by zero", err)
	}
}

func TestTransactionRollback(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO products VALUES (10500, 'tents', 99.0, 1)")
	mustExec(t, s, "UPDATE products SET price = 0 WHERE custid = 10100")
	mustExec(t, s, "DELETE FROM products WHERE custid = 10200")
	mustExec(t, s, "ROLLBACK")
	res := mustExec(t, s, "SELECT COUNT(*) FROM products")
	if res.Rows[0][0].I != 5 {
		t.Fatalf("rows after rollback = %v, want 5", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT SUM(price) FROM products WHERE custid = 10100")
	f, _ := res.Rows[0][0].AsFloat()
	if f != 1228.99 {
		t.Errorf("prices restored = %v, want 1228.99", f)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM products WHERE custid = 10200")
	if res.Rows[0][0].I != 1 {
		t.Errorf("deleted row not restored")
	}
}

func TestTransactionCommit(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO products VALUES (10500, 'tents', 99.0, 1)")
	mustExec(t, s, "COMMIT")
	res := mustExec(t, s, "SELECT COUNT(*) FROM products")
	if res.Rows[0][0].I != 6 {
		t.Fatalf("rows after commit = %v, want 6", res.Rows[0][0])
	}
}

func TestTransactionDDLRollback(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "CREATE TABLE scratch (a INTEGER)")
	mustExec(t, s, "INSERT INTO scratch VALUES (1)")
	mustExec(t, s, "DROP TABLE urldb")
	mustExec(t, s, "ROLLBACK")
	if _, err := s.Exec("SELECT * FROM scratch"); err == nil {
		t.Error("scratch table survived rollback")
	}
	res := mustExec(t, s, "SELECT COUNT(*) FROM urldb")
	if res.Rows[0][0].I != 5 {
		t.Errorf("urldb not restored: %v", res.Rows[0][0])
	}
	// Index on url must still work after restore.
	res = mustExec(t, s, "SELECT title FROM urldb WHERE url = 'http://www.eso.org'")
	if len(res.Rows) != 1 {
		t.Errorf("index lookup after rollback failed")
	}
}

func TestDoubleBeginFails(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "BEGIN")
	_, err := s.Exec("BEGIN")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeInvalidTxnState {
		t.Fatalf("err = %v, want invalid txn state", err)
	}
	mustExec(t, s, "ROLLBACK")
}

func TestSessionCloseRollsBack(t *testing.T) {
	db := NewDatabase("test")
	s1 := NewSession(db)
	if _, err := s1.ExecScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(db)
	mustExec(t, s2, "BEGIN")
	mustExec(t, s2, "INSERT INTO t VALUES (2)")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := NewSession(db)
	res := mustExec(t, s3, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("count = %v, want 1 (insert rolled back on close)", res.Rows[0][0])
	}
}

func TestScalarFunctions(t *testing.T) {
	s := mustSession(t)
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT LENGTH('hello')", "5"},
		{"SELECT LENGTH('naïve')", "5"}, // characters, not bytes
		{"SELECT LENGTH(NULL)", ""},
		{"SELECT ROUND(3.14159, 2)", "3.14"},
		{"SELECT ROUND(2.5)", "3"},
		{"SELECT ROUND('7.25', 1)", "7.3"},
		{"SELECT 7 % 3", "1"},
		{"SELECT CASE WHEN 1 < 2 THEN 'yes' ELSE 'no' END", "yes"},
		{"SELECT CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END", "two"},
	}
	for _, c := range cases {
		res := mustExec(t, s, c.sql)
		if got := res.Rows[0][0].String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"bikes mountain", "bikes%", true},
		{"bikes", "bikes%", true},
		{"xbikes", "bikes%", false},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true}, // _,_ match e,l; then "lo" anchors at end
		{"hello", "h_llo_", false},
		{"hi", "h__", false},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "abc", true},
		{"abc", "ABC", false},
		{"100%", "100!%", false}, // '!' is literal
		{"a%b", "a\\%b", false},  // and so is a backslash
		{"naïve", "na_ve", true}, // '_' matches one rune, not one byte
	}
	for _, c := range cases {
		if got := compileLike(c.pat).match(c.s); got != c.want {
			t.Errorf("LIKE(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestIndexEquality(t *testing.T) {
	s := mustSession(t)
	// urldb has a primary-key index on url.
	res := mustExec(t, s, "SELECT title FROM urldb WHERE url = 'http://www.ncsa.uiuc.edu'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "NCSA" {
		t.Fatalf("pk lookup = %v", rowsAsStrings(res))
	}
}

func TestIndexPrefixLike(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT COUNT(*) FROM urldb WHERE url LIKE 'http://www.ibm%'")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("prefix LIKE via index = %v, want 2", res.Rows[0][0])
	}
	// Same result from the naive plan, which never uses an index.
	s.naive = true
	res = mustExec(t, s, "SELECT COUNT(*) FROM urldb WHERE url LIKE 'http://www.ibm%'")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("prefix LIKE full scan = %v, want 2", res.Rows[0][0])
	}
}

func TestIndexRange(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "CREATE INDEX price_ix ON products (price)")
	res := mustExec(t, s, "SELECT COUNT(*) FROM products WHERE price > 100")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("range via index = %v, want 3", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM products WHERE price <= 45.5")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("range via index = %v, want 2", res.Rows[0][0])
	}
}

func TestCreateIndexDuplicateKeyFails(t *testing.T) {
	s := mustSession(t)
	_, err := s.Exec("CREATE UNIQUE INDEX cid ON products (custid)")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeUniqueViolation {
		t.Fatalf("err = %v, want unique violation", err)
	}
}

func TestDropIndex(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "CREATE INDEX price_ix ON products (price)")
	mustExec(t, s, "DROP INDEX price_ix")
	if _, err := s.Exec("DROP INDEX price_ix"); err == nil {
		t.Fatal("second drop should fail")
	}
	mustExec(t, s, "DROP INDEX IF EXISTS price_ix")
}

func TestSelectWithoutFrom(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "SELECT 1 + 2, LENGTH('xy')")
	if res.Rows[0][0].I != 3 || res.Rows[0][1].I != 2 {
		t.Fatalf("computed row = %v", rowsAsStrings(res))
	}
}

func TestDefaultValues(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "CREATE TABLE d (a INTEGER DEFAULT 7, b VARCHAR(10) DEFAULT 'hi', c INTEGER)")
	mustExec(t, s, "INSERT INTO d (c) VALUES (1)")
	res := mustExec(t, s, "SELECT a, b, c FROM d")
	if res.Rows[0][0].I != 7 || res.Rows[0][1].S != "hi" || res.Rows[0][2].I != 1 {
		t.Fatalf("defaults = %v", rowsAsStrings(res))
	}
}

func TestTypeCoercionOnInsert(t *testing.T) {
	s := mustSession(t)
	// Dynamic SQL passes numbers as strings routinely.
	mustExec(t, s, "INSERT INTO products VALUES ('10600', 'rope', '9.99', '4')")
	res := mustExec(t, s, "SELECT custid, price, qty FROM products WHERE product_name = 'rope'")
	if res.Rows[0][0].I != 10600 {
		t.Errorf("custid coerced = %v", res.Rows[0][0])
	}
	if res.Rows[0][1].Float() != 9.99 {
		t.Errorf("price coerced = %v", res.Rows[0][1])
	}
}

func TestStringNumberComparison(t *testing.T) {
	s := mustSession(t)
	// WHERE custid = '10100' — quoting numbers is ubiquitous in macro SQL.
	res := mustExec(t, s, "SELECT COUNT(*) FROM products WHERE custid = '10100'")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("string/number compare = %v, want 2", res.Rows[0][0])
	}
}

func TestAmbiguousColumn(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "CREATE TABLE a1 (x INTEGER)")
	mustExec(t, s, "CREATE TABLE a2 (x INTEGER)")
	_, err := s.Exec("SELECT x FROM a1, a2")
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeAmbiguousColumn {
		t.Fatalf("err = %v, want ambiguous column", err)
	}
}

func TestMultiRowInsert(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "INSERT INTO products VALUES (1,'a',1.0,1), (2,'b',2.0,2), (3,'c',3.0,3)")
	if res.RowsAffected != 3 {
		t.Fatalf("inserted %d, want 3", res.RowsAffected)
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll("SELECT 1; SELECT 2;; SELECT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("parsed %d statements, want 3", len(stmts))
	}
}

func TestComments(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, `SELECT COUNT(*) -- trailing comment
FROM products /* block
comment */ WHERE custid = 10100`)
	if res.Rows[0][0].I != 2 {
		t.Fatalf("with comments = %v", res.Rows[0][0])
	}
}

func TestQuotedIdentifier(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, `CREATE TABLE q ("desc" VARCHAR(10), "select" INTEGER)`)
	mustExec(t, s, `INSERT INTO q VALUES ('d', 1)`)
	res := mustExec(t, s, `SELECT "desc", "select" FROM q`)
	if res.Rows[0][0].S != "d" || res.Rows[0][1].I != 1 {
		t.Fatalf("quoted idents = %v", rowsAsStrings(res))
	}
}

func TestCaseInsensitiveKeywordsAndColumns(t *testing.T) {
	s := mustSession(t)
	res := mustExec(t, s, "select Title from URLDB where URL like '%eso%'")
	if len(res.Rows) != 1 {
		t.Fatalf("case-insensitive query = %v", rowsAsStrings(res))
	}
}

func TestUpdateRollbackRestoresIndex(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE urldb SET url = 'http://changed' WHERE url = 'http://www.eso.org'")
	mustExec(t, s, "ROLLBACK")
	res := mustExec(t, s, "SELECT title FROM urldb WHERE url = 'http://www.eso.org'")
	if len(res.Rows) != 1 {
		t.Fatal("index entry not restored after update rollback")
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM urldb WHERE url = 'http://changed'")
	if res.Rows[0][0].I != 0 {
		t.Fatal("stale index entry after rollback")
	}
}
