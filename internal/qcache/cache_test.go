package qcache

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"db2www/internal/core"
	"db2www/internal/obs"
	"db2www/internal/sqldb"
)

// fakeSource is a Source whose table versions tests move. A statement is
// "<shape> <key>": the shape, a comma-separated list of the tables it
// reads, is its digest; one that begins SELECT is not cacheable.
type fakeSource struct {
	mu sync.Mutex
	v  map[string]uint64
}

func newFakeSource() *fakeSource { return &fakeSource{v: map[string]uint64{}} }

func (f *fakeSource) AppendTableVersions(dst []uint64, tables []string) []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range tables {
		dst = append(dst, f.v[t])
	}
	return dst
}

func (f *fakeSource) StatementFacts(sql string) sqldb.Facts {
	shape, _, _ := strings.Cut(sql, " ")
	if shape == "SELECT" {
		return sqldb.Facts{}
	}
	return sqldb.Facts{Digest: shape, Norm: shape, Tables: strings.Split(shape, ","), Cacheable: true}
}

// len counts the entries under l.
func (l *tableLink) len() int {
	count := func(n *link) (k int) {
		for ; n != nil; n = n.next {
			k++
		}
		return k
	}
	k := count(l.fresh) + count(l.rest)
	for _, n := range l.keyed {
		k += count(n)
	}
	return k
}

// Changes keeps no records: every bump is a change of the whole table.
func (f *fakeSource) Changes(string, uint64, uint64) ([]sqldb.Change, bool) { return nil, false }

func (f *fakeSource) Predicate(*sqldb.Facts, *sqldb.Change) *sqldb.Predicate { return nil }

func (f *fakeSource) bump(table string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.v[table]++
}

// fakeConn is the connection under the cache: its exec step counts
// executions and answers res, or whatever run returns when set.
type fakeConn struct {
	execs atomic.Int64
	res   *core.SQLResult
	run   func() (*core.SQLResult, error)
}

func (c *fakeConn) exec(sqldb.Facts) (*core.SQLResult, error) {
	c.execs.Add(1)
	if c.run != nil {
		return c.run()
	}
	return c.res, nil
}

func resultOfSize(payload int) *core.SQLResult {
	return &core.SQLResult{
		Columns: []string{"c"},
		Rows:    [][]core.Field{{{S: strings.Repeat("x", payload)}}},
	}
}

// do is Do for a test that expects no error. A hit must have been served
// under the invariant that replaced comparing an entry's versions with
// the tables': the entry is linked, and each of its links has swept to its
// table's current version.
func do(t *testing.T, c *Cache, src Source, conn *fakeConn, sql string) (*core.SQLResult, Outcome) {
	t.Helper()
	res, out, err := c.Do(src, sql, conn.exec)
	if err != nil {
		t.Fatal(err)
	}
	if out.How == Hit {
		c.mu.Lock()
		defer c.mu.Unlock()
		e := c.entries[key{src, sql}]
		if e == nil || e.next == nil {
			t.Fatalf("%s: a hit on an entry that is not linked", sql)
		}
		for i, v := range src.AppendTableVersions(nil, e.facts.Tables) {
			if l := e.links[i].l; l.seen != v || c.links[tableKey{src, e.facts.Tables[i]}] != l {
				t.Fatalf("%s: a hit while its link under %s is at version %d, the table at %d", sql, e.facts.Tables[i], l.seen, v)
			}
		}
	}
	return res, out
}

func TestDoCachesAndHits(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	conn := &fakeConn{res: resultOfSize(10)}
	for i := 0; i < 5; i++ {
		got, out := do(t, c, src, conn, "t k1")
		if got != conn.res {
			t.Fatalf("iteration %d returned a different result pointer", i)
		}
		if want := (Outcome{How: Hit, Digest: "t", Norm: "t"}); i > 0 && out != want {
			t.Fatalf("iteration %d: outcome %+v, want %+v", i, out, want)
		}
	}
	if n := conn.execs.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 4 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v, want 4 hits / 1 miss / 1 store", st)
	}
}

func TestVersionInvalidation(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	conn := &fakeConn{res: resultOfSize(4)}
	do(t, c, src, conn, "t k")
	src.bump("t")
	do(t, c, src, conn, "t k")
	if n := conn.execs.Load(); n != 2 {
		t.Fatalf("executed %d times, want 2 (write invalidates)", n)
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	// A bump of an unrelated table does not invalidate.
	src.bump("other")
	do(t, c, src, conn, "t k")
	if n := conn.execs.Load(); n != 2 {
		t.Fatalf("executed %d times after unrelated bump, want 2", n)
	}
}

func TestWriteDuringExecutionIsNotStored(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	conn := &fakeConn{run: func() (*core.SQLResult, error) {
		src.bump("t") // a write lands mid-execution
		return resultOfSize(4), nil
	}}
	do(t, c, src, conn, "t k")
	if c.Len() != 0 {
		t.Fatalf("entry stored despite a mid-execution write")
	}
	if st := c.Stats(); st.Uncacheable != 1 {
		t.Fatalf("uncacheable = %d, want 1", st.Uncacheable)
	}
}

// TestStaleFillIsNotStored: a result read before a write that some lookup
// has already seen — the leader was slow to come back with it — is served
// and not stored, and the entries that write killed stay gone.
func TestStaleFillIsNotStored(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	conn := &fakeConn{res: resultOfSize(4)}
	do(t, c, src, conn, "t a")
	k := key{src, "t slow"}
	facts := src.StatementFacts(k.sql)
	before := src.AppendTableVersions(nil, facts.Tables)
	src.bump("t")
	do(t, c, src, conn, "t a") // sees the bump, refills at the new version
	c.mu.Lock()
	stored := c.storeLocked(k, conn.res, facts, before)
	c.mu.Unlock()
	if stored || c.Len() != 1 {
		t.Fatalf("a fill from before a seen write was stored: %v, %d entries", stored, c.Len())
	}
	if _, out := do(t, c, src, conn, "t a"); out.How != Hit {
		t.Fatalf("the live entry was lost: %+v", out)
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	// Each entry is ~135 bytes (64 base + 17 column + 24 row + 25+payload
	// field + statement text); a 400-byte budget holds two.
	c := New(400)
	src := newFakeSource()
	conn := &fakeConn{res: resultOfSize(1)}
	for i := 0; i < 4; i++ {
		do(t, c, src, conn, fmt.Sprintf("t k%d", i))
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions storing 4 entries under a smaller budget; stats %+v, bytes %d", st, c.Bytes())
	}
	if c.Bytes() > 400 {
		t.Fatalf("cache holds %d bytes, budget 400", c.Bytes())
	}
	// k0 was evicted (LRU): re-asking executes again.
	before := conn.execs.Load()
	do(t, c, src, conn, "t k0")
	if conn.execs.Load() != before+1 {
		t.Fatalf("k0 served from cache after eviction")
	}
}

func TestLRUOrderRespectsRecency(t *testing.T) {
	c := New(420) // three entries of 135 bytes
	src := newFakeSource()
	conn := &fakeConn{res: resultOfSize(1)}
	for _, k := range []string{"t a", "t b", "t c"} {
		do(t, c, src, conn, k)
	}
	// Touch "a" so "b" is now the least recently used, then overflow.
	do(t, c, src, conn, "t a")
	do(t, c, src, conn, "t d")
	before := conn.execs.Load()
	do(t, c, src, conn, "t a")
	if conn.execs.Load() != before {
		t.Fatalf("recently-touched entry was evicted before the LRU one")
	}
	do(t, c, src, conn, "t b")
	if conn.execs.Load() != before+1 {
		t.Fatalf("LRU entry survived past newer entries")
	}
}

// cachedDB is a core.DBProvider whose every statement goes through the
// cache, as a caching connection outside a transaction does.
type cachedDB struct {
	c    *Cache
	src  Source
	conn *fakeConn
}

func (p cachedDB) Connect(_, _, _ string) (core.DBConn, error) { return p, nil }
func (p cachedDB) Begin() error                                { return nil }
func (p cachedDB) Commit() error                               { return nil }
func (p cachedDB) Rollback() error                             { return nil }
func (p cachedDB) Close() error                                { return nil }
func (p cachedDB) Execute(sql string) (*core.SQLResult, error) {
	res, _, err := p.c.Do(p.src, sql, p.conn.exec)
	return res, err
}

// TestRenderMemoRidesOnTheEntry: the %ROW block the second rendering of a
// cached result keeps on it is charged to the byte budget the next time the
// entry is served — Bytes(), which db2www_qcache_bytes exports, says so,
// and a budget it overflows evicts from the LRU tail — and it leaves with
// the entry, on a sweep as on Flush.
func TestRenderMemoRidesOnTheEntry(t *testing.T) {
	m, err := core.Parse("memo.d2w", "%DEFINE{\nD2 = ? \"<br>$(V2)\"\n%}\n"+
		"%SQL{t report\n%SQL_REPORT{<UL>\n%ROW{<LI>$(V1) $(D2)\n%}\n</UL>\n%}\n%}\n%HTML_REPORT{%EXEC_SQL%}\n")
	if err != nil {
		t.Fatal(err)
	}
	table := &core.SQLResult{Columns: []string{"url", "title"}}
	for i := 0; i < 100; i++ {
		table.Rows = append(table.Rows, []core.Field{{S: fmt.Sprintf("http://www.ibm%d.com/", i)}, {S: "title"}})
	}
	src := newFakeSource()
	conn := &fakeConn{}
	render := func(c *Cache) {
		t.Helper()
		if err := (&core.Engine{DB: cachedDB{c, src, conn}}).Run(m, core.ModeReport, nil, &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
	}
	fresh := func() (*core.SQLResult, error) { return &core.SQLResult{Columns: table.Columns, Rows: table.Rows}, nil }

	c := New(1 << 20)
	RegisterMetrics(c)
	exported := func() int64 { return int64(obs.Default.Snapshot()["db2www_qcache_bytes"]) }
	conn.run = fresh
	render(c) // stored
	entry := c.Bytes()
	render(c) // printed into the memo
	if c.Bytes() != entry {
		t.Fatalf("the memo was charged before the entry was next served: %d -> %d bytes", entry, c.Bytes())
	}
	render(c) // served from the memo, which the lookup charges
	memo := c.Bytes() - entry
	if memo < int64(100*len("<LI>http://www.ibm10.com/ <br>title\n")) {
		t.Fatalf("a hit served from a 100-row memo raised Bytes() by %d", memo)
	}
	if got := exported(); got != c.Bytes() {
		t.Errorf("db2www_qcache_bytes %d, Bytes() %d", got, c.Bytes())
	}

	// A write to the table: the next lookup sweeps the entry and its memo
	// (the refill fails, so nothing takes their place).
	src.bump("t")
	conn.run = func() (*core.SQLResult, error) { return nil, fmt.Errorf("the database is away") }
	render(c)
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Errorf("after a sweep: %d bytes in %d entries, want none", c.Bytes(), c.Len())
	}
	conn.run = fresh
	for i := 0; i < 3; i++ {
		render(c)
	}
	if c.Bytes() != entry+memo {
		t.Fatalf("refilled: %d bytes, want %d", c.Bytes(), entry+memo)
	}
	c.Flush()
	if c.Bytes() != 0 || exported() != 0 {
		t.Errorf("after Flush: %d bytes, db2www_qcache_bytes %d", c.Bytes(), exported())
	}

	// A budget that holds the report's entry and its memo, or the entry and
	// another one, but not all three: charging the memo evicts the other
	// entry, the LRU tail.
	other := &fakeConn{res: resultOfSize(10)}
	c = New(entry + memo + int64(resultOfSize(10).SizeBytes()+len("u other"))/2)
	do(t, c, src, other, "u other")
	for i := 0; i < 3; i++ {
		render(c)
	}
	if st := c.Stats(); st.Evictions != 1 || c.Len() != 1 || c.Bytes() != entry+memo {
		t.Fatalf("memo over the budget: %d evictions, %d entries of %d bytes, want 1, 1, %d",
			st.Evictions, c.Len(), c.Bytes(), entry+memo)
	}
	if _, out := do(t, c, src, other, "u other"); out.How != Miss {
		t.Errorf("the LRU tail survived the memo: %+v", out)
	}
}

func TestOversizeResultNotStored(t *testing.T) {
	c := New(200)
	src := newFakeSource()
	do(t, c, src, &fakeConn{res: resultOfSize(500)}, "t big")
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversize entry stored: len %d bytes %d", c.Len(), c.Bytes())
	}
	if st := c.Stats(); st.Uncacheable != 1 {
		t.Fatalf("uncacheable = %d, want 1", st.Uncacheable)
	}
}

// TestUncacheableNeverStored: a statement the engine does not call
// cacheable — here a SELECT it does not parse — is executed every time and
// counted as a bypass.
func TestUncacheableNeverStored(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	conn := &fakeConn{res: resultOfSize(4)}
	for i := 0; i < 3; i++ {
		if _, out := do(t, c, src, conn, "SELECT FROM"); out.How != Bypass {
			t.Fatalf("outcome %+v, want a bypass", out)
		}
	}
	if n := conn.execs.Load(); n != 3 {
		t.Fatalf("uncacheable statement executed %d times, want 3", n)
	}
	if c.Len() != 0 {
		t.Fatalf("uncacheable statement was stored")
	}
	// Not a lookup: the hit ratio is of what the cache tried to serve.
	if st := c.Stats(); st.Misses != 0 || st.Bypasses != 3 || st.Uncacheable != 0 {
		t.Fatalf("stats = %+v, want 3 bypasses and no miss", st)
	}
}

// TestAdmissionByObservedInvalidation counts, with no clock: a shape whose
// table is written between every two fills is stored admitMinFills times,
// then refused but for one execution in probeEvery; when the writes stop
// the next probe survives and is served, and the shape is admitted again
// within decayFills fills.
func TestAdmissionByObservedInvalidation(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	conn := &fakeConn{res: resultOfSize(4)}
	n := 0
	next := func() Outcome {
		n++
		_, out := do(t, c, src, conn, fmt.Sprintf("t k%d", n))
		return out
	}
	for i := 1; i <= admitMinFills; i++ {
		if out := next(); out.How != Miss {
			t.Fatalf("fill %d: %+v, want a miss that stores", i, out)
		}
		src.bump("t")
	}
	if st := c.Stats(); st.Stores != admitMinFills || st.Refused != 0 {
		t.Fatalf("after %d fills each killed by a write: %+v", admitMinFills, st)
	}
	for round := 0; round < 3; round++ {
		for i := 1; i < probeEvery; i++ {
			if out := next(); out.How != Refused {
				t.Fatalf("round %d, execution %d: %+v, want refused", round, i, out)
			}
		}
		if out := next(); out.How != Miss {
			t.Fatalf("round %d: execution %d is the probe, got %+v", round, probeEvery, out)
		}
		src.bump("t")
	}
	st := c.Stats()
	if st.Stores != admitMinFills+3 || st.Refused != 3*(probeEvery-1) || st.Misses != st.Stores {
		t.Fatalf("a store per %d executions, the rest refused and no miss: %+v", probeEvery, st)
	}
	if c.Len() > 1 {
		t.Fatalf("%d entries of a refused shape are live", c.Len())
	}

	// The writes stop. The next probe's entry lives and is served …
	for next().How != Miss {
	}
	probe := fmt.Sprintf("t k%d", n)
	if _, out := do(t, c, src, conn, probe); out.How != Hit {
		t.Fatalf("the surviving probe is not served: %+v", out)
	}
	// … and the probes that survive come to outweigh the wasted fills:
	// admitted is two misses in a row.
	stores, last := c.Stats().Stores, n
	for prev := Refused; ; {
		how := next().How
		if how == Miss && prev == Miss {
			break
		}
		if prev = how; c.Stats().Stores-stores > decayFills {
			t.Fatalf("still refused %d fills after the last write", decayFills)
		}
	}
	t.Logf("admitted again %d fills and %d executions after the last write", c.Stats().Stores-stores, n-last)
}

// TestReadOnlyShapeNeverRefused: nothing is invalidated, so 2 000 distinct
// keys of one shape fill at full speed.
func TestReadOnlyShapeNeverRefused(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	conn := &fakeConn{res: resultOfSize(4)}
	for i := 0; i < 2000; i++ {
		do(t, c, src, conn, fmt.Sprintf("t k%d", i))
	}
	if st := c.Stats(); st.Refused != 0 || st.Stores != 2000 || c.Len() != 2000 {
		t.Fatalf("stats %+v, %d entries: want 2000 stores, none refused", st, c.Len())
	}
}

// TestTableSweepDropsExactlyItsReaders: the first lookup that sees a
// table's version move drops every entry that read the table — the join's
// too, from under both of its tables — and no other.
func TestTableSweepDropsExactlyItsReaders(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	conn := &fakeConn{res: resultOfSize(4)}
	for i := 0; i < 5; i++ {
		do(t, c, src, conn, fmt.Sprintf("a k%d", i))
		do(t, c, src, conn, fmt.Sprintf("b k%d", i))
	}
	do(t, c, src, conn, "a,b join")
	do(t, c, src, conn, "a k0") // the one entry under a that was served

	src.bump("a")
	if _, out := do(t, c, src, conn, "a k3"); out.How != Miss {
		t.Fatalf("read of a written table: %+v", out)
	}
	// Gone: a's five and the join. Left: b's five and the refill.
	if st := c.Stats(); st.Invalidations != 6 || c.Len() != 6 {
		t.Fatalf("after a write to a: %d invalidations, %d entries, want 6 and 6", st.Invalidations, c.Len())
	}
	c.mu.Lock()
	la, lb := c.links[tableKey{src, "a"}], c.links[tableKey{src, "b"}]
	if la.len() != 1 || lb.len() != 5 {
		t.Errorf("links: %d under a, %d under b, want 1 and 5", la.len(), lb.len())
	}
	if sh := c.shapes["a"]; sh.fills != 6 || sh.wasted != 4 {
		t.Errorf("shape a: %+v, want 6 fills of which 4 wasted (k0 was served)", *sh)
	}
	if sh := c.shapes["a,b"]; sh.fills != 1 || sh.wasted != 1 {
		t.Errorf("shape a,b: %+v, want its one fill wasted", *sh)
	}
	c.mu.Unlock()
	execs := conn.execs.Load()
	for i := 0; i < 5; i++ {
		do(t, c, src, conn, fmt.Sprintf("b k%d", i))
	}
	if conn.execs.Load() != execs {
		t.Fatalf("entries that read only b were dropped by a write to a")
	}
	// The join comes back under both tables; a write to the other one
	// takes it out of both.
	do(t, c, src, conn, "a,b join")
	src.bump("b")
	do(t, c, src, conn, "a,b join")
	c.mu.Lock()
	defer c.mu.Unlock()
	if la.len() != 2 || lb.len() != 1 || len(c.entries) != 2 {
		t.Fatalf("after a write to b: %d under a, %d under b, %d entries, want 2, 1, 2",
			la.len(), lb.len(), len(c.entries))
	}
}

func TestSingleFlightDeduplicates(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	gate := make(chan struct{})
	conn := &fakeConn{run: func() (*core.SQLResult, error) {
		<-gate
		return resultOfSize(4), nil
	}}
	const n = 16
	var wg sync.WaitGroup
	results := make([]*core.SQLResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := c.Do(src, "t k", conn.exec)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	// Let followers pile up behind the leader, then release it.
	for conn.execs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := conn.execs.Load(); got != 1 {
		t.Fatalf("executed %d times across %d concurrent callers, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result", i)
		}
	}
	if st := c.Stats(); st.Dedups == 0 {
		t.Fatalf("dedups = 0, want > 0; stats %+v", st)
	}
}

func TestFollowerRevalidatesAfterLeaderFails(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	gate := make(chan struct{})
	leader := &fakeConn{run: func() (*core.SQLResult, error) {
		<-gate
		return nil, fmt.Errorf("boom")
	}}
	follower := &fakeConn{res: resultOfSize(4)}

	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.Do(src, "t k", leader.exec)
		errCh <- err
	}()
	for leader.execs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The follower must not inherit the leader's error: it re-checks
		// the cache, finds nothing, and executes itself.
		res, _, err := c.Do(src, "t k", follower.exec)
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		if res == nil {
			t.Errorf("follower got nil result")
		}
	}()
	time.Sleep(5 * time.Millisecond)
	close(gate)
	if err := <-errCh; err == nil {
		t.Fatalf("leader error lost")
	}
	<-done
	if l, f := leader.execs.Load(), follower.execs.Load(); l != 1 || f != 1 {
		t.Fatalf("executed %d + %d times, want 1 + 1 (leader fails, follower retries)", l, f)
	}
}

// TestLeaderPanicLandsTheFlight: a panic under the leader's execution goes
// on up to its caller, and the flight lands with it: a caller of the same
// statement, waiting or later, leads a flight of its own.
func TestLeaderPanicLandsTheFlight(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	gate := make(chan struct{})
	conn := &fakeConn{}
	conn.run = func() (*core.SQLResult, error) {
		if conn.execs.Load() == 1 {
			<-gate
			panic("boom")
		}
		return resultOfSize(4), nil
	}
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(src, "t k", conn.exec)
	}()
	for conn.execs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	type result struct {
		out Outcome
		err error
	}
	second := make(chan result, 1)
	go func() {
		_, out, err := c.Do(src, "t k", conn.exec)
		second <- result{out, err}
	}()
	time.Sleep(5 * time.Millisecond) // the second caller waits on the flight
	close(gate)
	if p := <-panicked; p != "boom" {
		t.Fatalf("the leader's caller recovered %v, want the panic boom", p)
	}
	select {
	case r := <-second:
		if r.err != nil || r.out.How != Miss {
			t.Fatalf("second caller: %+v, %v; want a miss of its own flight", r.out, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a caller of the statement still waits on the flight of a leader that panicked")
	}
	if n := conn.execs.Load(); n != 2 {
		t.Fatalf("executed %d times, want 2 (the panic, then the second flight)", n)
	}
	if _, out := do(t, c, src, conn, "t k"); out.How != Hit {
		t.Fatalf("the second flight's result was not stored: %+v", out)
	}
}

// TestFlush: the entries and the per-table links go, the counters —
// admission's too — stay.
func TestFlush(t *testing.T) {
	c := New(1 << 20)
	src := newFakeSource()
	conn := &fakeConn{res: resultOfSize(4)}
	do(t, c, src, conn, "t k")
	c.Flush()
	if c.Len() != 0 || c.Bytes() != 0 || len(c.links) != 0 {
		t.Fatalf("flush left len %d bytes %d links %d", c.Len(), c.Bytes(), len(c.links))
	}
	if st := c.Stats(); st.Stores != 1 || c.shapes["t"].fills != 1 {
		t.Fatalf("flush reset the counters: %+v, shape %+v", st, c.shapes["t"])
	}
	do(t, c, src, conn, "t k")
	if n := conn.execs.Load(); n != 2 {
		t.Fatalf("executed %d times after flush, want 2", n)
	}
	// The refill is linked afresh: a write still finds it.
	src.bump("t")
	if _, out := do(t, c, src, conn, "t k"); out.How != Miss || c.Stats().Invalidations != 1 {
		t.Fatalf("after flush, refill and write: %+v, %+v", out, c.Stats())
	}
}
