package qcache_test

import (
	"bytes"
	"testing"

	"db2www/internal/core"
	"db2www/internal/gateway"
	"db2www/internal/qcache"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

// benchQuery is a read-only repeated query that does real work per
// execution: unindexable substring LIKEs force a full scan of the table
// on every miss — the shape of the paper's Appendix A search — while the
// selective predicate keeps the report itself small, so the measurement
// isolates query execution rather than HTML generation.
const benchQuery = "SELECT url, title FROM urldb " +
	"WHERE url LIKE '%ibm%' AND title LIKE '%b%' ORDER BY title"

// benchEngine is an engine over a fresh urldb, behind cache when it is not
// nil; the database records its statements in a registry of its own.
func benchEngine(tb testing.TB, dbName string, rows int, cache *qcache.Cache) (*core.Engine, *sqldb.Database) {
	tb.Helper()
	db := sqldb.NewDatabase(dbName)
	if err := workload.URLDB(db, rows, 1); err != nil {
		tb.Fatal(err)
	}
	db.SetStatementStats(sqldb.NewStatementStats(0))
	sqldriver.Register(dbName, db)
	tb.Cleanup(func() { sqldriver.Unregister(dbName) })
	return &core.Engine{DB: &gateway.SQLProvider{Cache: cache}}, db
}

func benchMacro(tb testing.TB, dbName string) *core.Macro {
	tb.Helper()
	src := `%define{DATABASE = "` + dbName + `"
%}
%SQL{
` + benchQuery + `
%SQL_REPORT{<UL>
%ROW{<LI>$(V1): $(V2)
%}
</UL>
%}
%}
%HTML_REPORT{%EXEC_SQL%}
`
	m, err := core.Parse("qbench.d2w", src)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestReadOnlyWorkloadSpeedup counts where the saving comes from (what it
// is worth in time is BENCH_24.json's off/on table): of 60 requests for
// one report, macro rendering included, the engine executes the statement
// for the first and the cache answers the other 59 — parse, plan, a full
// table scan and a sort skipped — on pages equal to the uncached ones.
func TestReadOnlyWorkloadSpeedup(t *testing.T) {
	const rows, requests = 2000, 60
	cache := qcache.New(64 << 20)
	cachedEngine, db := benchEngine(t, "QSPEEDC", rows, cache)
	plainEngine, _ := benchEngine(t, "QSPEEDP", rows, nil)
	mc := benchMacro(t, "QSPEEDC")
	mp := benchMacro(t, "QSPEEDP")

	var want, got bytes.Buffer
	if err := plainEngine.Run(mp, core.ModeReport, nil, &want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < requests; i++ {
		got.Reset()
		if err := cachedEngine.Run(mc, core.ModeReport, nil, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("request %d: the cached page differs from the uncached one", i)
		}
	}
	digest, _ := sqldb.DigestSQL(benchQuery)
	if st, _ := db.StatementStats().Get(digest); st.Calls != 1 || st.CacheHits != requests-1 {
		t.Fatalf("%d requests: the engine executed %d, the cache answered %d, want 1 and %d",
			requests, st.Calls, st.CacheHits, requests-1)
	}
	if st := cache.Stats(); st.Hits != requests-1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("cache stats %+v, want %d hits, 1 miss, 1 store", st, requests-1)
	}
}

// BenchmarkReportUncached / BenchmarkReportCached are the testing.B view
// of the same workload for EXPERIMENTS.md.
func BenchmarkReportUncached(b *testing.B) {
	e, _ := benchEngine(b, "QBENCHP", 2000, nil)
	m := benchMacro(b, "QBENCHP")
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := e.Run(m, core.ModeReport, nil, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReportCached(b *testing.B) {
	e, _ := benchEngine(b, "QBENCHC", 2000, qcache.New(64<<20))
	m := benchMacro(b, "QBENCHC")
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := e.Run(m, core.ModeReport, nil, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheLookupParallel measures raw hit throughput under
// contention — the hot path a saturated gateway lives on.
func BenchmarkCacheLookupParallel(b *testing.B) {
	cache := qcache.New(64 << 20)
	db := sqldb.NewDatabase("QBENCHL")
	if err := workload.URLDB(db, 200, 1); err != nil {
		b.Fatal(err)
	}
	sqldriver.Register("QBENCHL", db)
	b.Cleanup(func() { sqldriver.Unregister("QBENCHL") })
	provider := &gateway.SQLProvider{Cache: cache}
	warm, err := provider.Connect("QBENCHL", "", "")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Execute("SELECT url FROM urldb ORDER BY url"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := provider.Connect("QBENCHL", "", "")
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		for pb.Next() {
			if _, err := conn.Execute("SELECT url FROM urldb ORDER BY url"); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if st := cache.Stats(); st.Hits == 0 {
		b.Fatalf("no hits: %+v", st)
	}
}
