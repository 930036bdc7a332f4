package sqldb

import (
	"math/rand"
	"reflect"
	"testing"
)

func newVersionTestDB(t *testing.T) (*Database, *Session) {
	t.Helper()
	db := NewDatabase("VTEST")
	s := NewSession(db)
	t.Cleanup(func() { s.Close() })
	if _, err := s.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := s.Exec("INSERT INTO kv VALUES (1, 10)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	return db, s
}

func TestTableVersionBumpsOnWrites(t *testing.T) {
	db, s := newVersionTestDB(t)
	v := db.TableVersion("kv")
	if v == 0 {
		t.Fatalf("version 0 after CREATE+INSERT, want > 0")
	}
	steps := []string{
		"INSERT INTO kv VALUES (2, 20)",
		"UPDATE kv SET v = 30 WHERE k = 1",
		"DELETE FROM kv WHERE k = 2",
	}
	for _, sql := range steps {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		nv := db.TableVersion("KV") // case-insensitive
		if nv <= v {
			t.Fatalf("%s: version %d, want > %d", sql, nv, v)
		}
		v = nv
	}
}

func TestTableVersionUnchangedByReadsAndIndexDDL(t *testing.T) {
	db, s := newVersionTestDB(t)
	v := db.TableVersion("kv")
	if _, err := s.Exec("SELECT * FROM kv"); err != nil {
		t.Fatalf("select: %v", err)
	}
	if _, err := s.Exec("CREATE INDEX kv_v ON kv (v)"); err != nil {
		t.Fatalf("create index: %v", err)
	}
	if _, err := s.Exec("DROP INDEX kv_v"); err != nil {
		t.Fatalf("drop index: %v", err)
	}
	if nv := db.TableVersion("kv"); nv != v {
		t.Fatalf("version changed to %d by reads/index DDL, want %d", nv, v)
	}
}

func TestTableVersionBumpsEvenOnFailedWrite(t *testing.T) {
	db, s := newVersionTestDB(t)
	v := db.TableVersion("kv")
	// Duplicate primary key: the statement fails, but conservatively the
	// version still moves (a failed multi-row INSERT can leave rows).
	if _, err := s.Exec("INSERT INTO kv VALUES (1, 99)"); err == nil {
		t.Fatalf("duplicate insert unexpectedly succeeded")
	}
	if nv := db.TableVersion("kv"); nv <= v {
		t.Fatalf("version %d after failed write, want > %d", nv, v)
	}
}

func TestTableVersionAcrossTransactions(t *testing.T) {
	db, s := newVersionTestDB(t)
	v := db.TableVersion("kv")

	// Committed transaction: version strictly advances.
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE kv SET v = 40 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	v2 := db.TableVersion("kv")
	if v2 <= v {
		t.Fatalf("version %d after committed txn, want > %d", v2, v)
	}

	// Open transaction: under MVCC the writes are invisible until commit,
	// so no bump happens mid-transaction (a bump would only cause
	// spurious cache misses for data that has not changed).
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE kv SET v = 50 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if mid := db.TableVersion("kv"); mid != v2 {
		t.Fatalf("version %d inside txn, want %d (bumps are commit-time)", mid, v2)
	}
	// Rollback still bumps the tables the transaction wrote, so any
	// cache entry recorded while the writes were pending can never
	// validate against post-rollback state.
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if v3 := db.TableVersion("kv"); v3 <= v2 {
		t.Fatalf("version %d after rollback, want > %d", v3, v2)
	}
	res, err := s.Exec("SELECT v FROM kv WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 40 {
		t.Fatalf("v = %d after rollback, want 40", res.Rows[0][0].I)
	}
}

func TestRollbackBumpsWrittenTablesOnly(t *testing.T) {
	db, s := newVersionTestDB(t)
	if _, err := s.Exec("CREATE TABLE audit (k INTEGER, note VARCHAR(20))"); err != nil {
		t.Fatal(err)
	}
	vKV := db.TableVersion("kv")
	vAudit := db.TableVersion("audit")

	// The transaction reads kv but writes only audit. Rolling it back
	// must not invalidate cache entries over kv: nothing about kv's
	// visible state changed at any point.
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT * FROM kv"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO audit VALUES (1, 'touched')"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if nv := db.TableVersion("kv"); nv != vKV {
		t.Fatalf("kv version %d after rollback of read-only access, want %d", nv, vKV)
	}
	if nv := db.TableVersion("audit"); nv <= vAudit {
		t.Fatalf("audit version %d after rollback of write, want > %d", nv, vAudit)
	}
}

func TestTableVersionNeverRepeatsAcrossDropCreate(t *testing.T) {
	db, s := newVersionTestDB(t)
	v := db.TableVersion("kv")
	if _, err := s.Exec("DROP TABLE kv"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE kv (k INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if nv := db.TableVersion("kv"); nv <= v {
		t.Fatalf("version %d after drop+create, want > %d", nv, v)
	}
}

func TestTableVersionsSnapshot(t *testing.T) {
	db, s := newVersionTestDB(t)
	if _, err := s.Exec("CREATE TABLE other (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	got := db.AppendTableVersions(nil, []string{"kv", "other", "missing"})
	want := []uint64{db.TableVersion("kv"), db.TableVersion("other"), 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TableVersions = %v, want %v", got, want)
	}
}

var analyzeCases = []struct {
	sql       string
	tables    []string
	cacheable bool
}{
	{"SELECT * FROM urldb", []string{"urldb"}, true},
	{"SELECT a.x FROM t1 a JOIN t2 b ON a.id = b.id", []string{"t1", "t2"}, true},
	{"SELECT T.x FROM T, T u", []string{"t"}, true},
	{"INSERT INTO t VALUES (1)", nil, false},
	{"UPDATE t SET x = 1", nil, false},
	{"DELETE FROM t", nil, false},
	{"not sql at all", nil, false},
}

// AnalyzeQuery is stmtFacts on a parse of the text it is given, outside
// the plan cache: the oracle of Database.StatementFacts. A parse error is
// uncacheable.
func AnalyzeQuery(sql string) (tables []string, cacheable bool) {
	st, err := Parse(sql)
	if err != nil {
		return nil, false
	}
	return stmtFacts(st)
}

func TestAnalyzeQuery(t *testing.T) {
	for _, c := range analyzeCases {
		tables, cacheable := AnalyzeQuery(c.sql)
		if cacheable != c.cacheable {
			t.Errorf("AnalyzeQuery(%q) cacheable = %v, want %v", c.sql, cacheable, c.cacheable)
			continue
		}
		if c.cacheable && !reflect.DeepEqual(tables, c.tables) {
			t.Errorf("AnalyzeQuery(%q) tables = %v, want %v", c.sql, tables, c.tables)
		}
	}
}

// TestStatementFactsMatchAnalyzeQuery is the oracle of the facts the plan
// cache keeps with a shape: for AnalyzeQuery's own cases, the plan corpus
// and the 2 500 statements planGen derives from TestPlanCacheByteIdentical's
// seeds, what Database.StatementFacts answers — on first sight, when it
// parses the shape or finds it, and on the repeat, from the shape map — is
// what AnalyzeQuery derives from a parse of the text, under the text's own
// digest.
func TestStatementFactsMatchAnalyzeQuery(t *testing.T) {
	var stmts []string
	for _, c := range analyzeCases {
		stmts = append(stmts, c.sql)
	}
	stmts = append(stmts, planCorpus...)
	for seed := int64(1); seed <= 5; seed++ {
		g := &planGen{r: rand.New(rand.NewSource(seed)), nextID: 200}
		for i := 0; i < 500; i++ {
			stmts = append(stmts, g.next().sql)
		}
	}
	db := NewDatabase("facts")
	cacheable := 0
	for _, sql := range stmts {
		wantTables, want := AnalyzeQuery(sql)
		for _, pass := range []string{"first sight", "repeat"} {
			f := db.StatementFacts(sql)
			if f.Cacheable != want || (want && !reflect.DeepEqual(f.Tables, wantTables)) {
				t.Fatalf("%s, %s: facts %v %v, AnalyzeQuery %v %v", sql, pass, f.Tables, f.Cacheable, wantTables, want)
			}
			if digest, norm := DigestSQL(sql); want && (f.Digest != digest || f.Norm != norm) {
				t.Fatalf("%s, %s: facts under %s %q, the text digests to %s %q", sql, pass, f.Digest, f.Norm, digest, norm)
			}
		}
		if want {
			cacheable++
		}
	}
	if cacheable < len(stmts)/2 {
		t.Fatalf("%d of %d statements cacheable: the oracle checks too little", cacheable, len(stmts))
	}
}
