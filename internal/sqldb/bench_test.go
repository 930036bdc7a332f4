package sqldb

import (
	"fmt"
	"testing"
)

// benchDB builds a table with n rows and a primary key plus a secondary
// index, for query benchmarks.
func benchDB(b *testing.B, n int) *Session {
	b.Helper()
	db := NewDatabase("BENCH")
	s := NewSession(db)
	if _, err := s.ExecScript(`CREATE TABLE t (
  id INTEGER PRIMARY KEY,
  grp INTEGER NOT NULL,
  name VARCHAR(40) NOT NULL,
  val DOUBLE NOT NULL);
CREATE INDEX t_grp ON t (grp)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Exec("INSERT INTO t VALUES (?, ?, ?, ?)",
			NewInt(int64(i)), NewInt(int64(i%100)),
			NewString(fmt.Sprintf("name-%06d", i)), NewFloat(float64(i)*1.25)); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkInsert(b *testing.B) {
	db := NewDatabase("INS")
	s := NewSession(db)
	if _, err := s.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(40))"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec("INSERT INTO t VALUES (?, ?)",
			NewInt(int64(i)), NewString("value")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointLookup(b *testing.B) {
	s := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec("SELECT name FROM t WHERE id = ?", NewInt(int64(i%10000)))
		if err != nil || len(res.Rows) != 1 {
			b.Fatal(err)
		}
	}
}

func BenchmarkSecondaryIndexScan(b *testing.B) {
	s := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec("SELECT COUNT(*) FROM t WHERE grp = ?", NewInt(int64(i%100)))
		if err != nil || res.Rows[0][0].I != 100 {
			b.Fatalf("err %v rows %v", err, res.Rows)
		}
	}
}

func BenchmarkFullScanFilter(b *testing.B) {
	s := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec("SELECT COUNT(*) FROM t WHERE val > 6000"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupByAggregate(b *testing.B) {
	s := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec("SELECT grp, SUM(val) FROM t GROUP BY grp")
		if err != nil || len(res.Rows) != 100 {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderBy(b *testing.B) {
	s := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec("SELECT id, name FROM t ORDER BY val DESC"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseOnly(b *testing.B) {
	const q = "SELECT a.x, COUNT(*) FROM t1 a JOIN t2 b ON a.id = b.id WHERE a.v LIKE 'p%' AND b.n >= 1 AND b.n <= 10 GROUP BY a.x ORDER BY 2 DESC"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateIndexed(b *testing.B) {
	s := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec("UPDATE t SET val = val + 1 WHERE id = ?",
			NewInt(int64(i%10000))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTxnCommit(b *testing.B) {
	db := NewDatabase("TXB")
	s := NewSession(db)
	if _, err := s.Exec("CREATE TABLE t (id INTEGER, v INTEGER)"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.BeginTxn(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Exec("INSERT INTO t VALUES (?, 1)", NewInt(int64(i))); err != nil {
			b.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheResolve measures what the front door costs before
// anything is planned: a repeat of the shape with another literal (the
// shape map; 2 000 texts, as the benchmark's point_lookup sends them), and
// the same with an ORDER BY ordinal in the shape's key.
func BenchmarkPlanCacheResolve(b *testing.B) {
	texts := func(format string) []string {
		out := make([]string, 2000)
		for i := range out {
			out[i] = fmt.Sprintf(format, i)
		}
		return out
	}
	for _, c := range []struct {
		name  string
		texts []string
	}{
		{"shape", texts("SELECT url, title, description FROM urldb WHERE url = 'http://www.ibm%d.example/'")},
		{"shape_ordinal", texts("SELECT a, b FROM t WHERE c = %d ORDER BY 1")},
	} {
		b.Run(c.name, func(b *testing.B) {
			db := NewDatabase("PC")
			for _, q := range c.texts[:1] {
				db.StatementFacts(q)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.StatementFacts(c.texts[i%len(c.texts)])
			}
		})
	}
}

// TestLargeObjectValues is the Section 5 "support for large objects"
// check: megabyte-scale values survive storage, predicates, functions,
// and dump/restore.
func TestLargeObjectValues(t *testing.T) {
	db := NewDatabase("LOB")
	s := NewSession(db)
	if _, err := s.Exec("CREATE TABLE blobs (id INTEGER PRIMARY KEY, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	if _, err := s.Exec("INSERT INTO blobs VALUES (1, ?)", NewString(string(big))); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("SELECT LENGTH(body) FROM blobs WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 1<<20 {
		t.Fatalf("length = %v", res.Rows[0][0])
	}
	res, err = s.Exec("SELECT COUNT(*) FROM blobs WHERE body LIKE 'abc%'")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("LIKE over LOB: %v %v", res.Rows, err)
	}
	res, err = s.Exec("SELECT body FROM blobs")
	if err != nil || res.Rows[0][0].S != string(big) {
		t.Fatalf("LOB read back: %d bytes, %v", len(res.Rows[0][0].S), err)
	}
}
