package qcache_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/gateway"
	"db2www/internal/obs"
	"db2www/internal/qcache"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

// newStressDB registers a tiny kv database and returns it with a cleanup.
func newStressDB(t *testing.T, name string) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase(name)
	s := sqldb.NewSession(db)
	if _, err := s.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO kv VALUES (1, 0)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	sqldriver.Register(name, db)
	t.Cleanup(func() { sqldriver.Unregister(name) })
	return db
}

// TestNoStaleReadAfterCommittedWrite is the correctness stress test: one
// writer advances a counter monotonically while concurrent readers go
// through the cache; every value read must be at least the last value
// whose write had committed before the read began. Run under -race this
// also exercises the cache's locking.
func TestNoStaleReadAfterCommittedWrite(t *testing.T) {
	newStressDB(t, "QSTRESS")
	cache := qcache.New(1 << 20)
	provider := &gateway.SQLProvider{Cache: cache}

	const (
		writes  = 800
		readers = 4
	)
	var committedFloor atomic.Int64
	var readIters atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		conn, err := provider.Connect("QSTRESS", "", "")
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		for i := 1; i <= writes; i++ {
			if _, err := conn.Execute(fmt.Sprintf("UPDATE kv SET v = %d WHERE k = 1", i)); err != nil {
				t.Error(err)
				return
			}
			// The write is committed once Execute returns (auto-commit
			// mode); only now may readers demand to see it.
			committedFloor.Store(int64(i))
			// Force genuine interleaving: on GOMAXPROCS=1 the writer can
			// otherwise retire every write inside one scheduler quantum, so
			// no read ever observes an intermediate version and the
			// invalidation assertion below is vacuous. Wait (bounded, in
			// case the readers died) until some reader finishes an
			// iteration started after this commit.
			waitFor := readIters.Load() + 1
			for spin := 0; readIters.Load() < waitFor && spin < 100_000; spin++ {
				runtime.Gosched()
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := provider.Connect("QSTRESS", "", "")
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := committedFloor.Load()
				res, err := conn.Execute("SELECT v FROM kv WHERE k = 1")
				if err != nil {
					t.Error(err)
					return
				}
				got, err := strconv.ParseInt(res.Rows[0][0].S, 10, 64)
				if err != nil {
					t.Errorf("non-numeric v %q", res.Rows[0][0].S)
					return
				}
				if got < floor {
					t.Errorf("stale read: v = %d after write %d committed", got, floor)
					return
				}
				readIters.Add(1)
				// Yield so the writer (and the other readers) interleave
				// per iteration instead of per scheduler quantum.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()

	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("stress test never hit the cache; stats %+v", st)
	}
	if st.Invalidations == 0 {
		t.Fatalf("stress test never invalidated; stats %+v", st)
	}
}

// TestCommentBeforeSelectIsCached: the cache and the provider under it
// read a statement's kind with the engine's lexer, so a SELECT behind
// either kind of comment is a query to both — cached, not bypassed — and a
// write behind one still reaches the database.
func TestCommentBeforeSelectIsCached(t *testing.T) {
	newStressDB(t, "QCOMMENT")
	cache := qcache.New(1 << 20)
	conn, err := (&gateway.SQLProvider{Cache: cache}).Connect("QCOMMENT", "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, q := range []string{"/* c */ SELECT v FROM kv WHERE k = 1", "-- c\n/* d */ select v FROM kv WHERE k = 1"} {
		for i := 0; i < 2; i++ {
			res, err := conn.Execute(q)
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "0" {
				t.Fatalf("%q: %+v, %v", q, res, err)
			}
		}
	}
	if st := cache.Stats(); st.Hits != 2 || st.Misses != 2 || st.Bypasses != 0 {
		t.Fatalf("want 2 hits, 2 misses, no bypass: %+v", st)
	}
	if _, err := conn.Execute("/* SELECT */ UPDATE kv SET v = 7 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Bypasses != 1 {
		t.Fatalf("a write behind a comment was not a bypass: %+v", st)
	}
	if res, err := conn.Execute("/* c */ SELECT v FROM kv WHERE k = 1"); err != nil || res.Rows[0][0].S != "7" {
		t.Fatalf("read after write: %+v, %v", res, err)
	}
}

// TestNoStaleReadAcrossTransactions repeats the staleness check with the
// writer using explicit transactions, including rollbacks: a reader must
// never observe a value from a rolled-back transaction, and committed
// values must be visible to subsequent cached reads.
func TestNoStaleReadAcrossTransactions(t *testing.T) {
	newStressDB(t, "QSTRESSTXN")
	cache := qcache.New(1 << 20)
	provider := &gateway.SQLProvider{Cache: cache}

	const rounds = 200
	var committedFloor atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		conn, err := provider.Connect("QSTRESSTXN", "", "")
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		for i := 1; i <= rounds; i++ {
			if err := conn.Begin(); err != nil {
				t.Error(err)
				return
			}
			// Write a poison value, then the real one; on odd rounds roll
			// the whole transaction back.
			if _, err := conn.Execute("UPDATE kv SET v = -1 WHERE k = 1"); err != nil {
				t.Error(err)
				return
			}
			commit := i%2 == 0
			target := committedFloor.Load()
			if commit {
				target = int64(i)
			}
			if _, err := conn.Execute(fmt.Sprintf("UPDATE kv SET v = %d WHERE k = 1", i)); err != nil {
				t.Error(err)
				return
			}
			if commit {
				if err := conn.Commit(); err != nil {
					t.Error(err)
					return
				}
			} else if err := conn.Rollback(); err != nil {
				t.Error(err)
				return
			}
			committedFloor.Store(target)
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := provider.Connect("QSTRESSTXN", "", "")
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := committedFloor.Load()
				res, err := conn.Execute("SELECT v FROM kv WHERE k = 1")
				if err != nil {
					t.Error(err)
					return
				}
				got, _ := strconv.ParseInt(res.Rows[0][0].S, 10, 64)
				if got == -1 {
					t.Errorf("read the uncommitted poison value")
					return
				}
				if got < floor {
					t.Errorf("stale read: v = %d after write %d committed", got, floor)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCachedAndUncachedReportsAreByteIdentical is the property test: the
// same macro, inputs, and database state must render the same report
// bytes whether execution goes through the cache or not — including the
// ROW_NUM / RPT_STARTROW / RPT_MAXROWS paging machinery — across a
// sequence of interleaved writes.
func TestCachedAndUncachedReportsAreByteIdentical(t *testing.T) {
	const dbName = "QPROP"
	db := sqldb.NewDatabase(dbName)
	if err := workload.URLDB(db, 120, 1); err != nil {
		t.Fatal(err)
	}
	sqldriver.Register(dbName, db)
	t.Cleanup(func() { sqldriver.Unregister(dbName) })

	macroSrc := `%define{
DATABASE = "` + dbName + `"
RPT_MAXROWS = "25"
%}
%SQL{
SELECT url, title FROM urldb ORDER BY url
%SQL_REPORT{
<P>Columns: $(NLIST)</P>
<UL>
%ROW{<LI>#$(ROW_NUM): <A HREF="$(V1)">$(V2)</A>
%}
</UL>
<P>Total rows: $(ROW_NUM)</P>
%}
%}
%HTML_REPORT{<H1>Report</H1>
%EXEC_SQL
%}
`
	m, err := core.Parse("qprop.d2w", macroSrc)
	if err != nil {
		t.Fatal(err)
	}
	cache := qcache.New(1 << 20)
	cached := &core.Engine{DB: &gateway.SQLProvider{Cache: cache}}
	plain := &core.Engine{DB: gateway.NewSQLProvider()}

	render := func(e *core.Engine, inputs *cgi.Form) string {
		var buf bytes.Buffer
		if err := e.Run(m, core.ModeReport, inputs, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	writer := sqldb.NewSession(db)
	defer writer.Close()

	// On a traced request the statement's entry says how each layer
	// handled it: the cache's decision, and — from the engine on a miss,
	// from the cache on a hit — the digest.
	traced := func(e *core.Engine) obs.SQLExec {
		tr := obs.NewTrace("qprop")
		if err := e.RunContext(obs.WithTrace(context.Background(), tr), m, core.ModeReport, nil, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		entry := *tr.SQL[0]
		entry.DurMicros, entry.DBMicros = 0, 0
		return entry
	}
	want := obs.SQLExec{Section: "(unnamed)", SQL: "SELECT url, title FROM urldb ORDER BY url", Rows: 120,
		Kind: "select", Digest: traced(plain).Digest}
	if got := traced(plain); got != want || got.Digest == "" {
		t.Fatalf("uncached entry = %+v", got)
	}
	want.Cache = "miss"
	if got := traced(cached); got != want {
		t.Fatalf("entry of a miss = %+v", got)
	}
	want.Cache, want.Kind = "hit", "" // the engine never saw it
	if got := traced(cached); got != want {
		t.Fatalf("entry of a hit = %+v", got)
	}

	for round := 0; round < 6; round++ {
		// Vary the paging inputs so cached results are re-rendered under
		// different RPT_STARTROW positions from the same materialisation.
		inputs := cgi.NewForm()
		inputs.Set("RPT_STARTROW", strconv.Itoa(1+round*10))

		// Render cached twice (miss then hit) and compare both to plain.
		first := render(cached, inputs)
		second := render(cached, inputs)
		reference := render(plain, inputs)
		if first != reference {
			t.Fatalf("round %d: cached (miss) differs from uncached:\n%q\nvs\n%q", round, first, reference)
		}
		if second != reference {
			t.Fatalf("round %d: cached (hit) differs from uncached", round)
		}

		// Interleave a write and confirm both substrates see it.
		if _, err := writer.Exec(
			"INSERT INTO urldb VALUES (?, ?, ?)",
			sqldb.NewString(fmt.Sprintf("http://www.round%d.example/", round)),
			sqldb.NewString(fmt.Sprintf("Round %d", round)),
			sqldb.NewString("added mid-test")); err != nil {
			t.Fatal(err)
		}
		if render(cached, inputs) != render(plain, inputs) {
			t.Fatalf("round %d: cached report stale after write", round)
		}
	}
	if st := cache.Stats(); st.Hits == 0 || st.Invalidations == 0 {
		t.Fatalf("property test exercised no hits or no invalidations: %+v", st)
	}
}

// TestInvalidationContractUnderMVCC pins the version-counter contract the
// cache depends on, now that bumps happen at commit time:
//
//  1. an open transaction's uncommitted writes do not invalidate (they
//     are invisible, so cached results are still correct);
//  2. commit invalidates atomically with visibility;
//  3. a rolled-back transaction invalidates only tables it wrote —
//     cached results over tables it merely read stay live.
func TestInvalidationContractUnderMVCC(t *testing.T) {
	db := newStressDB(t, "QCONTRACT")
	s := sqldb.NewSession(db)
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE log (n INTEGER)"); err != nil {
		t.Fatal(err)
	}

	cache := qcache.New(1 << 20)
	provider := &gateway.SQLProvider{Cache: cache}
	conn, err := provider.Connect("QCONTRACT", "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	read := func() string {
		t.Helper()
		res, err := conn.Execute("SELECT v FROM kv WHERE k = 1")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].S
	}
	hits := func() int64 { return cache.Stats().Hits }

	read() // populate
	h0 := hits()
	if read(); hits() != h0+1 {
		t.Fatalf("warm read missed the cache")
	}

	// (1) Uncommitted writes don't invalidate.
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE kv SET v = 99 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	h1 := hits()
	if got := read(); got != "0" {
		t.Fatalf("read %q while writer txn open, want cached 0", got)
	}
	if hits() != h1+1 {
		t.Fatalf("open transaction invalidated the cache before commit")
	}

	// (2) Commit invalidates.
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "99" {
		t.Fatalf("read %q after commit, want 99", got)
	}

	// (3) Rollback of a transaction that read kv but wrote only log
	// leaves kv's cached entry live.
	read() // re-populate after the commit's invalidation
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT COUNT(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO log VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	h2 := hits()
	if got := read(); got != "99" {
		t.Fatalf("read %q after unrelated rollback, want 99", got)
	}
	if hits() != h2+1 {
		t.Fatalf("rollback of a read-only access invalidated kv's cache entry")
	}
}

// TestHitAndMissDoTheParsingTheyClaim: a hit does not reach the engine's
// lexer, parser or plan cache and allocates next to nothing; a miss asks
// the plan cache for the statement's facts, and the execution that
// follows runs the statement those facts resolved, so a new literal of a
// known shape is resolved once and never parsed, and a statement the shape
// tier does not take is resolved once and parsed once, as written, for
// the error sqldb.Parse reports. What parses a text outright — Parse, and
// the AnalyzeQuery that sqldb's tests keep as an oracle — has no caller in
// the query cache.
func TestHitAndMissDoTheParsingTheyClaim(t *testing.T) {
	db := newStressDB(t, "QPARSE")
	conn, err := (&gateway.SQLProvider{Cache: qcache.New(1 << 20)}).Connect("QPARSE", "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const q = "SELECT v FROM kv WHERE k = 1"
	exec := func(sql string) {
		if _, err := conn.Execute(sql); err != nil {
			t.Fatal(err)
		}
	}
	exec(q)
	before := db.PlanCacheStats()
	for i := 0; i < 1000; i++ {
		exec(q)
	}
	if after := db.PlanCacheStats(); after != before {
		t.Errorf("1000 hits moved the plan cache's counters: %+v -> %+v", before, after)
	}
	if allocs := testing.AllocsPerRun(1000, func() { exec(q) }); allocs > 4 {
		t.Errorf("a hit makes %.0f allocations, want at most 4", allocs)
	}

	before = db.PlanCacheStats()
	for i := 100; i < 200; i++ {
		exec(fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i))
	}
	after := db.PlanCacheStats()
	// Per statement one lookup, the cache's for the facts, whose statement
	// the session runs; none parses, the shape being q's.
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 0 || hits != 100 {
		t.Errorf("100 new literals of a known shape: %d plan-cache misses and %d hits, want 0 and 100", misses, hits)
	}
	before = after
	for i := 100; i < 200; i++ {
		exec(fmt.Sprintf("SELECT k FROM kv WHERE v = %d", i))
	}
	after = db.PlanCacheStats()
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 1 || hits != 99 {
		t.Errorf("100 literals of a new shape: %d plan-cache misses and %d hits, want 1 and 99", misses, hits)
	}

	// A statement whose shape does not parse: the first sight is the
	// shape's miss, whose error comes from the tokens the miss lexed; each
	// repeat is one bypass, parsed once as written. Either way the error is
	// the literal text's, not the parameterized shape's.
	const bad = "SELECT v FROM kv WHERE k = 1 'two'"
	_, perr := sqldb.Parse(bad)
	var want *sqldb.Error
	if !errors.As(perr, &want) {
		t.Fatalf("Parse(%q) = %v, want a *sqldb.Error", bad, perr)
	}
	const repeats = 50
	before = db.PlanCacheStats()
	for i := 0; i <= repeats; i++ {
		_, err := conn.Execute(bad)
		var got *sqldb.Error
		if !errors.As(err, &got) || *got != *want {
			t.Fatalf("execution %d of %q: %#v, want Parse's %#v", i, bad, err, want)
		}
	}
	after = db.PlanCacheStats()
	if d := (sqldb.PlanCacheStats{Misses: after.Misses - before.Misses, Hits: after.Hits - before.Hits,
		Bypasses: after.Bypasses - before.Bypasses}); d.Misses != 1 || d.Hits != 0 || d.Bypasses != repeats {
		t.Errorf("a shape that does not parse, %d repeats: %d misses, %d hits, %d bypasses, want 1, 0 and %d",
			repeats, d.Misses, d.Hits, d.Bypasses, repeats)
	}

	root := filepath.Join("..", "..")
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			if bytes.Contains(src, []byte("AnalyzeQuery(")) {
				t.Errorf("%s calls AnalyzeQuery: the request path asks Database.StatementFacts", rel)
			}
			if filepath.Dir(rel) != filepath.Join("internal", "qcache") {
				return nil
			}
			// The cache is handed its statement's execution: it opens no
			// connection of its own and parses nothing.
			for _, name := range []string{"sqldb.Parse", "sqldriver", "ContextDBConn"} {
				if bytes.Contains(src, []byte(name)) {
					t.Errorf("%s names %s", rel, name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
