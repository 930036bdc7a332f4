package qcache_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

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

func benchEngine(tb testing.TB, dbName string, rows int, cache *qcache.Cache) *core.Engine {
	tb.Helper()
	db := sqldb.NewDatabase(dbName)
	if err := workload.URLDB(db, rows, 1); err != nil {
		tb.Fatal(err)
	}
	sqldriver.Register(dbName, db)
	tb.Cleanup(func() { sqldriver.Unregister(dbName) })
	return &core.Engine{DB: qcache.Wrap(gateway.NewSQLProvider(), cache)}
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

// TestReadOnlyWorkloadSpeedup asserts the headline number: a read-only
// repeated-query workload runs at least 5x faster end to end (full macro
// report rendering included) with the cache on. The measured gap is far
// larger — a hit skips SQL parsing, planning, a full table scan, and a
// sort — so the 5x floor leaves a wide margin for noisy machines. Each
// request is timed and the two passes' medians compared: the cached pass
// is about a millisecond for all of its requests, and one scheduling
// hiccup in it used to decide the ratio of the sums.
func TestReadOnlyWorkloadSpeedup(t *testing.T) {
	const rows, iters = 2000, 60
	cache := qcache.New(64<<20, 0)
	cachedEngine := benchEngine(t, "QSPEEDC", rows, cache)
	plainEngine := benchEngine(t, "QSPEEDP", rows, nil)
	mc := benchMacro(t, "QSPEEDC")
	mp := benchMacro(t, "QSPEEDP")

	run := func(e *core.Engine, m *core.Macro) time.Duration {
		var buf bytes.Buffer
		// Warm up once so both sides measure steady state.
		if err := e.Run(m, core.ModeReport, nil, &buf); err != nil {
			t.Fatal(err)
		}
		took := make([]time.Duration, iters)
		for i := range took {
			buf.Reset()
			start := time.Now()
			if err := e.Run(m, core.ModeReport, nil, &buf); err != nil {
				t.Fatal(err)
			}
			took[i] = time.Since(start)
		}
		slices.Sort(took)
		return took[iters/2]
	}
	plain := run(plainEngine, mp)
	cached := run(cachedEngine, mc)
	speedup := float64(plain) / float64(cached)
	t.Logf("median request of %d: uncached %v, cached %v: %.1fx", iters, plain, cached, speedup)
	if speedup < 5 {
		t.Fatalf("cached speedup %.1fx, want >= 5x (uncached %v, cached %v)", speedup, plain, cached)
	}
	if st := cache.Stats(); st.Hits < int64(iters) {
		t.Fatalf("expected >= %d hits, got %+v", iters, st)
	}
}

// BenchmarkReportUncached / BenchmarkReportCached are the testing.B view
// of the same workload for EXPERIMENTS.md.
func BenchmarkReportUncached(b *testing.B) {
	e := benchEngine(b, "QBENCHP", 2000, nil)
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
	cache := qcache.New(64<<20, 0)
	e := benchEngine(b, "QBENCHC", 2000, cache)
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
	cache := qcache.New(64<<20, 0)
	db := sqldb.NewDatabase("QBENCHL")
	if err := workload.URLDB(db, 200, 1); err != nil {
		b.Fatal(err)
	}
	sqldriver.Register("QBENCHL", db)
	b.Cleanup(func() { sqldriver.Unregister("QBENCHL") })
	provider := qcache.Wrap(gateway.NewSQLProvider(), cache)
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
	_ = fmt.Sprintf
}
