package sqlsema

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"db2www/internal/sqldb"
)

const testDDL = `
CREATE TABLE customers (
    custid   INTEGER PRIMARY KEY,
    name     VARCHAR NOT NULL,
    city     VARCHAR,
    active   BOOLEAN,
    balance  DOUBLE DEFAULT 0
);
CREATE INDEX customers_name_idx ON customers(name);
CREATE TABLE orders (
    orderid  INTEGER PRIMARY KEY,
    custid   INTEGER NOT NULL,
    total    DOUBLE
);
INSERT INTO customers (custid, name) VALUES (1, 'Ada'), (2, 'Grace');
INSERT INTO orders (orderid, custid) VALUES (10, 1);
`

func mustSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := FromDDL(testDDL)
	if err != nil {
		t.Fatalf("FromDDL: %v", err)
	}
	return s
}

func analyzeSQL(t *testing.T, schema *Schema, sql string, opts Options) []Finding {
	t.Helper()
	st, err := sqldb.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return Analyze(st, schema, opts)
}

func wantFinding(t *testing.T, finds []Finding, rule string, sev Severity, msgSub string) Finding {
	t.Helper()
	for _, f := range finds {
		if f.Rule == rule && f.Sev == sev && strings.Contains(f.Msg, msgSub) {
			return f
		}
	}
	t.Fatalf("no %s/%v finding containing %q in %+v", rule, sev, msgSub, finds)
	return Finding{}
}

// TestFromDDL: a schema file is executed, not interpreted a second time,
// so what FromDDL reads is the catalog of a database that ran the script.
func TestFromDDL(t *testing.T) {
	appendixA, err := os.ReadFile(filepath.Join("..", "..", "testdata", "appendixa.sql"))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"testDDL": testDDL, "appendixa.sql": string(appendixA)} {
		s, err := FromDDL(src)
		if err != nil {
			t.Fatalf("%s: FromDDL: %v", name, err)
		}
		db := sqldb.NewDatabase("LIVE")
		if _, err := sqldb.NewSession(db).ExecScript(src); err != nil {
			t.Fatalf("%s: the engine refuses the script: %v", name, err)
		}
		got, want := s.Snapshot(), db.SchemaSnapshot()
		if len(got) == 0 || !reflect.DeepEqual([]sqldb.SchemaTable(got), want) {
			t.Errorf("%s: offline and live catalogs differ:\n got %+v\nwant %+v", name, got, want)
		}
	}
	// The lookups the analyzers use, over the engine's own model.
	c := mustSchema(t).Snapshot().Table("CUSTOMERS")
	if c == nil {
		t.Fatal("customers not found (case-insensitive lookup)")
	}
	if ix := indexOn(c, "custid"); ix == nil || !ix.Unique {
		t.Errorf("primary-key index = %+v, want the engine's unique index", ix)
	}
	if ix := indexOn(c, "NAME"); ix == nil || ix.Name != "customers_name_idx" {
		t.Errorf("name index = %+v", ix)
	}
	if col := c.Column("Balance"); col == nil || !col.HasDefault {
		t.Errorf("balance should have a default: %+v", col)
	}
}

func TestFromDDLRejectsQueries(t *testing.T) {
	if _, err := FromDDL("CREATE TABLE t (a INTEGER); SELECT * FROM t"); err == nil {
		t.Fatal("SELECT in a schema file should be rejected")
	}
	if _, err := FromDDL("CREATE INDEX i ON missing(a)"); err == nil {
		t.Fatal("index on unknown table should be rejected")
	}
}

// TestFromDDLRefusesWhatTheEngineRefuses: a schema no server could load
// must not bless macros in CI. Three scripts only the engine itself knows
// to refuse, each coming back with the engine's SQLSTATE.
func TestFromDDLRefusesWhatTheEngineRefuses(t *testing.T) {
	for _, tc := range []struct{ name, src, state string }{
		{"duplicate table name",
			"CREATE TABLE t (a INTEGER); CREATE TABLE t (b INTEGER)", "42P07"},
		{"duplicate index name",
			"CREATE TABLE t (a INTEGER, b INTEGER); CREATE INDEX i ON t(a); CREATE INDEX i ON t(b)", "42710"},
		{"duplicate-key seed row",
			"CREATE TABLE t (a INTEGER PRIMARY KEY); INSERT INTO t VALUES (1), (1)", "23505"},
	} {
		_, err := FromDDL(tc.src)
		var se *sqldb.Error
		if !errors.As(err, &se) || se.Code != tc.state {
			t.Errorf("%s: err = %v, want the engine's SQLSTATE %s", tc.name, err, tc.state)
		}
	}
}

// TestNameResolution: a schema finding is the engine's bind error, in its
// words, and a statement gets one even when it has more than one defect.
func TestNameResolution(t *testing.T) {
	s := mustSchema(t)

	f := analyzeSQL(t, s, "SELECT nosuch FROM customers", Options{})
	wantFinding(t, f, RuleSchema, SevError, `column "nosuch" does not exist`)

	f = analyzeSQL(t, s, "SELECT name FROM nosuch", Options{})
	wantFinding(t, f, RuleSchema, SevError, `table "nosuch" does not exist`)

	f = analyzeSQL(t, s, "SELECT custid FROM customers, orders WHERE customers.custid = orders.custid", Options{})
	wantFinding(t, f, RuleSchema, SevError, "ambiguous")

	f = analyzeSQL(t, s, "SELECT o.name FROM orders o", Options{})
	wantFinding(t, f, RuleSchema, SevError, `column "o.name" does not exist`)

	if f = analyzeSQL(t, s, "SELECT c.name FROM customers c WHERE c.city = 'Austin' AND c.custid = 1", Options{}); countSev(f, SevError) != 0 {
		t.Errorf("clean aliased query produced errors: %+v", f)
	}

	// Alias replaces the table name as qualifier, as in the executor.
	f = analyzeSQL(t, s, "SELECT customers.name FROM customers c", Options{})
	wantFinding(t, f, RuleSchema, SevError, `column "customers.name" does not exist`)

	// Unknown table suppresses cascading column errors.
	f = analyzeSQL(t, s, "SELECT whatever FROM nosuch", Options{})
	if n := len(f); n != 1 {
		t.Errorf("want only the unknown-table error, got %+v", f)
	}

	f = analyzeSQL(t, s, "INSERT INTO customers (custid, nosuch) VALUES (1, 2)", Options{})
	wantFinding(t, f, RuleSchema, SevError, `column "nosuch" does not exist`)

	f = analyzeSQL(t, s, "UPDATE customers SET nosuch = 1 WHERE custid = 1", Options{})
	wantFinding(t, f, RuleSchema, SevError, `column "nosuch" does not exist`)
}

func TestOrderByResolution(t *testing.T) {
	s := mustSchema(t)
	f := analyzeSQL(t, s, "SELECT name, city FROM customers ORDER BY 3", Options{})
	wantFinding(t, f, RuleSchema, SevError, "out of range")

	f = analyzeSQL(t, s, "SELECT name AS n FROM customers ORDER BY n", Options{})
	if countSev(f, SevError) != 0 {
		t.Errorf("alias in ORDER BY should resolve: %+v", f)
	}
}

func TestTypeChecks(t *testing.T) {
	s := mustSchema(t)

	f := analyzeSQL(t, s, "SELECT name FROM customers WHERE city = NULL", Options{})
	wantFinding(t, f, RuleType, SevError, "always unknown")

	f = analyzeSQL(t, s, "SELECT name FROM customers WHERE custid = 'abc'", Options{})
	ff := wantFinding(t, f, RuleType, SevError, "non-numeric string")
	if off := strings.Index("SELECT name FROM customers WHERE custid = 'abc'", "'abc'"); ff.Off != off {
		t.Errorf("finding at %d, want %d", ff.Off, off)
	}

	// A string column compared with a number is data-dependent: silent.
	f = analyzeSQL(t, s, "SELECT name FROM customers WHERE city = 77", Options{})
	if countSev(f, SevError) != 0 {
		t.Errorf("city = 77 should not error: %+v", f)
	}

	f = analyzeSQL(t, s, "SELECT name FROM customers WHERE active = 'maybe'", Options{})
	wantFinding(t, f, RuleType, SevError, "boolean compared")

	f = analyzeSQL(t, s, "SELECT name FROM customers WHERE custid IN (1, 'two')", Options{})
	wantFinding(t, f, RuleType, SevError, "non-numeric string")
}

func TestSlotTypeChecks(t *testing.T) {
	s := mustSchema(t)
	slots := []Slot{{Name: "CUST", Class: ClassText, Sample: "alice", Chain: `via %DEFINE CUST="alice"`}}
	f := analyzeSQL(t, s, "SELECT name FROM customers WHERE custid = ?", Options{Slots: slots})
	wantFinding(t, f, RuleType, SevError, "$(CUST)")

	slots[0].Class = ClassMaybeText
	f = analyzeSQL(t, s, "SELECT name FROM customers WHERE custid = ?", Options{Slots: slots})
	wantFinding(t, f, RuleType, SevWarn, "$(CUST)")

	slots[0].Class = ClassNumber
	f = analyzeSQL(t, s, "SELECT name FROM customers WHERE custid = ?", Options{Slots: slots})
	if countSev(f, SevError)+countSev(f, SevWarn) != 0 {
		t.Errorf("numeric slot should be clean: %+v", f)
	}

	slots[0].Class = ClassInput
	f = analyzeSQL(t, s, "SELECT name FROM customers WHERE custid = ?", Options{Slots: slots})
	if countSev(f, SevError) != 0 {
		t.Errorf("request input is data-dependent, should not error: %+v", f)
	}
}

func TestInsertChecks(t *testing.T) {
	s := mustSchema(t)

	f := analyzeSQL(t, s, "INSERT INTO customers (custid, name) VALUES (1, 'Ada', 'extra')", Options{})
	wantFinding(t, f, RuleType, SevError, "INSERT has 3 values for 2 columns")

	f = analyzeSQL(t, s, "INSERT INTO customers (custid, name) VALUES ('x1', 'Ada')", Options{})
	wantFinding(t, f, RuleType, SevError, "cannot be stored in INTEGER column")

	f = analyzeSQL(t, s, "INSERT INTO customers (custid, name) VALUES (1, NULL)", Options{})
	wantFinding(t, f, RuleType, SevError, "NOT NULL column customers.name")

	f = analyzeSQL(t, s, "INSERT INTO customers (custid, city) VALUES (1, 'Austin')", Options{})
	wantFinding(t, f, RuleType, SevError, "omits NOT NULL column(s) without defaults: name")

	// balance has a default: omitting it is fine.
	f = analyzeSQL(t, s, "INSERT INTO customers (custid, name) VALUES (1, 'Ada')", Options{})
	if countSev(f, SevError) != 0 {
		t.Errorf("clean INSERT produced errors: %+v", f)
	}
}

func TestUpdateDeleteChecks(t *testing.T) {
	s := mustSchema(t)
	f := analyzeSQL(t, s, "UPDATE customers SET name = NULL WHERE custid = 1", Options{})
	wantFinding(t, f, RuleType, SevError, "NOT NULL column customers.name")

	f = analyzeSQL(t, s, "DELETE FROM customers WHERE city = 'Austin'", Options{})
	wantFinding(t, f, RulePerf, SevWarn, "sequential scan")

	f = analyzeSQL(t, s, "DELETE FROM customers WHERE custid = 9", Options{})
	if len(f) != 0 {
		t.Errorf("indexed DELETE should be clean: %+v", f)
	}
}

func TestPerfSeqScan(t *testing.T) {
	s := mustSchema(t)

	f := analyzeSQL(t, s, "SELECT name FROM customers WHERE city = 'Austin'", Options{})
	ff := wantFinding(t, f, RulePerf, SevWarn, `no predicate on "customers" can use an index`)
	if !strings.Contains(ff.Msg, "~2 rows") {
		t.Errorf("row estimate missing: %q", ff.Msg)
	}
	if !strings.Contains(ff.Fix, "CREATE INDEX customers_city_idx ON customers(city)") {
		t.Errorf("fix = %q", ff.Fix)
	}

	// An indexed conjunct anywhere on the relation silences the warning.
	f = analyzeSQL(t, s, "SELECT name FROM customers WHERE city = 'Austin' AND custid = 1", Options{})
	if countRule(f, RulePerf) != 0 {
		t.Errorf("indexed conjunct should silence seq-scan warn: %+v", f)
	}

	f = analyzeSQL(t, s, "SELECT name FROM customers WHERE name LIKE 'A%'", Options{})
	if countRule(f, RulePerf) != 0 {
		t.Errorf("prefix LIKE on indexed column is index-usable: %+v", f)
	}

	f = analyzeSQL(t, s, "SELECT name FROM customers WHERE name LIKE '%son'", Options{})
	wantFinding(t, f, RulePerf, SevWarn, "leading-wildcard LIKE")

	// Leading wildcard known only through an opaque prefix.
	sql := "SELECT name FROM customers WHERE name LIKE '%x'"
	st, err := sqldb.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	off := strings.Index(sql, "'%x'")
	f = Analyze(st, s, Options{OpaqueLits: map[int]string{off: "%"}})
	wantFinding(t, f, RulePerf, SevWarn, "leading-wildcard LIKE")
}

func TestPerfCrossProduct(t *testing.T) {
	s := mustSchema(t)
	f := analyzeSQL(t, s, "SELECT name, total FROM customers, orders", Options{})
	ff := wantFinding(t, f, RulePerf, SevWarn, "cross product")
	if !strings.Contains(ff.Msg, "~2 rows") {
		t.Errorf("product estimate missing: %q", ff.Msg)
	}

	f = analyzeSQL(t, s, "SELECT name, total FROM customers, orders WHERE customers.custid = orders.custid", Options{})
	if countRule(f, RulePerf) != 0 {
		t.Errorf("join predicate should connect the rels: %+v", f)
	}

	f = analyzeSQL(t, s, "SELECT name, total FROM customers c JOIN orders o ON c.custid = o.custid", Options{})
	if countRule(f, RulePerf) != 0 {
		t.Errorf("explicit join is connected: %+v", f)
	}

	f = analyzeSQL(t, s, "SELECT name, total FROM customers CROSS JOIN orders", Options{})
	if countRule(f, RulePerf) != 0 {
		t.Errorf("explicit CROSS JOIN is intentional: %+v", f)
	}
}

func TestSelectStarReported(t *testing.T) {
	s := mustSchema(t)
	f := analyzeSQL(t, s, "SELECT * FROM customers WHERE custid = 1", Options{Reported: true})
	wantFinding(t, f, RulePerf, SevInfo, "SELECT *")

	f = analyzeSQL(t, s, "SELECT * FROM customers WHERE custid = 1", Options{})
	if countRule(f, RulePerf) != 0 {
		t.Errorf("SELECT * without a report target is fine: %+v", f)
	}
}

func TestFromDatabase(t *testing.T) {
	db := sqldb.NewDatabase("SEMA")
	sess := sqldb.NewSession(db)
	for _, stmt := range []string{
		"CREATE TABLE pets (id INTEGER PRIMARY KEY, species VARCHAR NOT NULL)",
		"INSERT INTO pets VALUES (1, 'cat'), (2, 'dog'), (3, 'owl')",
	} {
		if _, err := sess.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	s := FromDatabase(db)
	p := s.Snapshot().Table("pets")
	if p == nil {
		t.Fatal("pets missing from snapshot schema")
	}
	if p.EstRows != 3 {
		t.Errorf("EstRows = %d, want 3", p.EstRows)
	}
	if ix := indexOn(p, "id"); ix == nil || !ix.Unique {
		t.Errorf("pkey index missing: %+v", ix)
	}
	f := analyzeSQL(t, s, "SELECT nosuch FROM pets", Options{})
	wantFinding(t, f, RuleSchema, SevError, `column "nosuch" does not exist`)
}

func TestNilSchema(t *testing.T) {
	st, err := sqldb.Parse("SELECT nosuch FROM nowhere")
	if err != nil {
		t.Fatal(err)
	}
	if f := Analyze(st, nil, Options{}); f != nil {
		t.Errorf("nil schema should yield nil findings, got %+v", f)
	}
}

func countSev(fs []Finding, sev Severity) int {
	n := 0
	for _, f := range fs {
		if f.Sev == sev {
			n++
		}
	}
	return n
}

func countRule(fs []Finding, rule string) int {
	n := 0
	for _, f := range fs {
		if f.Rule == rule {
			n++
		}
	}
	return n
}

// TestTypeFindingsAreTheEnginesErrors: a sqltype error finding exists
// exactly when the statement, run over a row without NULLs, fails with a
// type error, and it quotes that error. Each row is a place where the
// checker's own model of the engine had drifted from it: a comparison
// fails with 42804 and not the 22P02 it claimed, TRUE + 1 is 2, a string
// cannot be negated even when numeric, 'NaN' is no INTEGER.
func TestTypeFindingsAreTheEnginesErrors(t *testing.T) {
	s := mustSchema(t)
	for _, sql := range []string{
		"SELECT name FROM customers WHERE custid = 'abc'",
		"SELECT name FROM customers WHERE custid = '5'",
		"SELECT name FROM customers WHERE active = 'maybe'",
		"SELECT TRUE + 1 FROM customers",
		"SELECT -'5' FROM customers",
		"SELECT name FROM customers WHERE custid + 'abc' > 1",
		"INSERT INTO customers (custid, name) VALUES ('NaN', 'x')",
		"UPDATE customers SET active = 'perhaps'",
	} {
		var typeErr *Finding
		for _, f := range analyzeSQL(t, s, sql, Options{}) {
			if f.Rule == RuleType && f.Sev == SevError {
				typeErr = &f
			}
		}
		sess := sqldb.NewSession(s.db)
		sess.BeginTxn()
		if _, err := sess.Exec("INSERT INTO customers VALUES (3, 'Edsger', 'Nuenen', TRUE, 1.5)"); err != nil {
			t.Fatal(err)
		}
		_, ran := sess.Exec(sql)
		sess.Rollback()
		var se *sqldb.Error
		isType := errors.As(ran, &se) && (se.Code == sqldb.CodeDatatypeMismatch || se.Code == sqldb.CodeInvalidText)
		switch {
		case isType && (typeErr == nil || !strings.HasSuffix(typeErr.Msg, ran.Error())):
			t.Errorf("%s: the engine raises %v, the finding is %+v", sql, ran, typeErr)
		case !isType && typeErr != nil:
			t.Errorf("%s: the engine raises %v, yet the finding %+v", sql, ran, typeErr)
		}
	}
}

// indexOn returns the first index of t on col (any case), or nil.
func indexOn(t *sqldb.SchemaTable, col string) *sqldb.SchemaIndex {
	for i := range t.Indexes {
		if strings.EqualFold(t.Indexes[i].Column, col) {
			return &t.Indexes[i]
		}
	}
	return nil
}
