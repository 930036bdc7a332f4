package sqldb_test

import (
	"testing"

	"db2www/internal/sqldb"
	"db2www/internal/workload"
)

// appendixAStatements are the shapes urlquery.d2w builds from its
// checkboxes and field list, as the benchmark's appendixa_search workload
// sends them: an OR of substring LIKEs over urldb, ORDER BY title.
var appendixAStatements = []struct{ name, sql string }{
	{"url", "SELECT url FROM urldb WHERE urldb.url LIKE '%ibm%' ORDER BY title"},
	{"url_title", "SELECT url , title FROM urldb WHERE urldb.url LIKE '%ibm%' OR urldb.title LIKE '%ibm%' ORDER BY title"},
	{"title_desc", "SELECT url , title , description FROM urldb WHERE urldb.title LIKE '%ibm%' OR urldb.description LIKE '%ibm%' ORDER BY title"},
	{"all", "SELECT url , title FROM urldb WHERE urldb.url LIKE '%ibm%' OR urldb.title LIKE '%ibm%' OR urldb.description LIKE '%ibm%' ORDER BY title"},
	{"all_desc", "SELECT url , description FROM urldb WHERE urldb.url LIKE '%ibm%' OR urldb.title LIKE '%ibm%' OR urldb.description LIKE '%ibm%' ORDER BY title"},
}

// appendixASession loads the benchmark's dataset, urldb:500:1.
func appendixASession(tb testing.TB) *sqldb.Session {
	tb.Helper()
	db := sqldb.NewDatabase("CELDIAL")
	if err := workload.URLDB(db, 500, 1); err != nil {
		tb.Fatal(err)
	}
	return sqldb.NewSession(db)
}

// TestAppendixAStatementAllocations pins the statement the LIKE program
// was built for: three LIKEs over 500 rows used to cost a dozen
// allocations per row (6 265 in all); prepared once per execution, the
// statement allocates for its plan, its sort and its result only.
func TestAppendixAStatementAllocations(t *testing.T) {
	s := appendixASession(t)
	sql := appendixAStatements[3].sql
	res, err := s.Exec(sql)
	if err != nil || len(res.Rows) == 0 || len(res.Rows) == 500 {
		t.Fatalf("rows %v, err %v: the search should select some rows, not all", res, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("three-LIKE Appendix A statement over 500 rows: %.0f allocations, want at most 100", allocs)
	}
}

func BenchmarkAppendixAStatement(b *testing.B) {
	s := appendixASession(b)
	for _, st := range appendixAStatements {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(st.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBigReportStatement is the benchmark's big_report workload seen
// from the engine: every row of urldb:2000:1, in the statement's exact
// text, and the same rows without the sort.
func BenchmarkBigReportStatement(b *testing.B) {
	db := sqldb.NewDatabase("CELDIAL")
	if err := workload.URLDB(db, 2000, 1); err != nil {
		b.Fatal(err)
	}
	s := sqldb.NewSession(db)
	for _, st := range []struct{ name, sql string }{
		{"sorted", "SELECT url , title , description FROM urldb ORDER BY title"},
		{"unsorted", "SELECT url , title , description FROM urldb"},
	} {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, err := s.Exec(st.sql); err != nil || len(res.Rows) != 2000 {
					b.Fatal(len(res.Rows), err)
				}
			}
		})
	}
}
