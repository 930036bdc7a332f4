package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// planSeedStmts is the two-table corpus schema used by the plan-cache
// equivalence tests, with emps employees in five departments.
func planSeedStmts(emps int) []string {
	stmts := []string{
		"CREATE TABLE dept (id INTEGER PRIMARY KEY, dname VARCHAR(40), loc VARCHAR(40))",
		"CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(40), dept INTEGER, salary DOUBLE)",
		"CREATE INDEX emp_dept ON emp (dept)",
	}
	locs := []string{"east", "west", "north", "south", "hq"}
	for d := 1; d <= 5; d++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO dept VALUES (%d, 'dept%d', '%s')", d, d, locs[d-1]))
	}
	for i := 1; i <= emps; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO emp VALUES (%d, 'n%02d', %d, %d.5)",
			i, i, i%5+1, 1000+i*37))
	}
	return stmts
}

// planSeed builds the corpus schema, identically on any database.
func planSeed(t *testing.T, s *Session) {
	t.Helper()
	for _, sql := range planSeedStmts(30) {
		mustExec(t, s, sql)
	}
}

// resultBytes serializes a result exactly: column names, every value in
// SQL rendering, and the affected-row count.
func resultBytes(res *Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, ","))
	sb.WriteString(fmt.Sprintf("|affected=%d", res.RowsAffected))
	for _, r := range res.Rows {
		sb.WriteByte('\n')
		for i, v := range r {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(valueSQL(v))
		}
	}
	return sb.String()
}

// planCorpus holds literal-bearing statements spanning the paramizable
// surface: point lookups, index and LIKE predicates, multi-table joins
// (comma and JOIN syntax), grouping, IN lists, ordinals, and DML. Multi-row results carry ORDER BY so row order is pinned.
var planCorpus = []string{
	"SELECT name, salary FROM emp WHERE id = 7",
	"SELECT name FROM emp WHERE salary > 1500 AND dept = 2 ORDER BY name",
	"SELECT name FROM emp WHERE name LIKE 'n1%' ORDER BY 1",
	"SELECT name FROM emp WHERE dept IN (1, 2) ORDER BY name DESC",
	"SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.id AND d.loc = 'west' ORDER BY e.name",
	"SELECT * FROM emp e JOIN dept d ON e.dept = d.id WHERE d.id = 3 ORDER BY e.id",
	"SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept ORDER BY dept",
	"UPDATE emp SET salary = 9999.25 WHERE id = 3",
	"UPDATE emp SET salary = 8888.25 WHERE id = 4",
	"INSERT INTO emp VALUES (100, 'zz', 1, 5.5)",
	"DELETE FROM emp WHERE id = 11",
	"SELECT * FROM emp ORDER BY id",
	// An ON condition sees the relations of its own FROM entry joined so
	// far: a relation joined later is not among them, on any plan, and a
	// name another entry also has is not ambiguous in it.
	"SELECT e.name FROM emp e JOIN dept d ON e.dept = d2.id JOIN dept d2 ON d2.id = d.id ORDER BY e.name",
	"SELECT e.name, d2.loc FROM emp e JOIN dept d ON e.dept = d.id AND dname <> 'dept1', dept d2 WHERE d2.id = d.id AND e.id < 9 ORDER BY e.id",
}

// naiveExec runs sql on the naive plan (declaration order, nothing pushed
// down, sequential scans) and around the plan cache: Parse + ExecStmt is
// the path that never touches it.
func naiveExec(s *Session, sql string) (*Result, error) {
	s.naive = true
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(st)
}

// failedAlike reports whether a statement failed on either plan, and fails
// the test unless it then failed on both with the same message.
func failedAlike(t *testing.T, sql string, optimised, naive error) bool {
	t.Helper()
	if optimised == nil && naive == nil {
		return false
	}
	if optimised == nil || naive == nil || optimised.Error() != naive.Error() {
		t.Fatalf("%s:\n optimised: %v\n naive: %v", sql, optimised, naive)
	}
	return true
}

// TestPlanCacheByteIdentical is the equivalence property, on one
// executor: every statement planned by the cost-based planner and served
// through the plan cache returns exactly the bytes of the same statement
// parsed afresh and planned naively — the corpus on the cold (parse) pass
// and the warm (cache hit) pass alike, then the statements planGen
// derives from a seed.
func TestPlanCacheByteIdentical(t *testing.T) {
	dbOn, dbOff := NewDatabase("on"), NewDatabase("off")
	sOn, sOff := NewSession(dbOn), NewSession(dbOff)
	planSeed(t, sOn)
	planSeed(t, sOff)
	seeded := dbOff.PlanCacheStats()

	for _, q := range planCorpus {
		off, offErr := naiveExec(sOff, q)
		on, onErr := sOn.Exec(q)
		if failedAlike(t, q, onErr, offErr) {
			continue
		}
		if got, want := resultBytes(on), resultBytes(off); got != want {
			t.Fatalf("%s: cold cached result differs\ncached: %s\nnaive: %s", q, got, want)
		}
	}
	// Second pass: SELECTs hit the cache and must still match a naive
	// re-run (DML is not idempotent, so only re-run reads).
	hitsBefore := dbOn.PlanCacheStats().Hits
	for _, q := range planCorpus {
		if !strings.HasPrefix(q, "SELECT") {
			continue
		}
		off, offErr := naiveExec(sOff, q)
		on, onErr := sOn.Exec(q)
		if failedAlike(t, q, onErr, offErr) {
			continue
		}
		if got, want := resultBytes(on), resultBytes(off); got != want {
			t.Fatalf("%s: warm cached result differs\ncached: %s\nnaive: %s", q, got, want)
		}
	}
	st := dbOn.PlanCacheStats()
	if st.Hits == hitsBefore {
		t.Fatalf("second pass recorded no cache hits: %+v", st)
	}
	if off := dbOff.PlanCacheStats(); off != seeded {
		t.Fatalf("Parse + ExecStmt touched the plan cache: %+v, after seeding %+v", off, seeded)
	}

	for seed := int64(1); seed <= 5; seed++ {
		checkGenerated(t, seed, 500)
	}
}

// TestPlanCacheHitSkipsParse: repeated shapes are served from cache (one
// miss, then hits), and distinct literals of the same shape share one
// entry.
func TestPlanCacheHitSkipsParse(t *testing.T) {
	db := NewDatabase("t")
	s := NewSession(db)
	planSeed(t, s)
	base := db.PlanCacheStats()
	for i := 1; i <= 10; i++ {
		res := mustExec(t, s, fmt.Sprintf("SELECT name FROM emp WHERE id = %d", i))
		if len(res.Rows) != 1 {
			t.Fatalf("id=%d returned %d rows", i, len(res.Rows))
		}
	}
	st := db.PlanCacheStats()
	if st.Misses-base.Misses != 1 {
		t.Fatalf("want exactly 1 miss for 10 same-shape queries, got %d", st.Misses-base.Misses)
	}
	if st.Hits-base.Hits != 9 {
		t.Fatalf("want 9 hits, got %d", st.Hits-base.Hits)
	}
	digest, cached := db.PlanCached("SELECT name FROM emp WHERE id = 1")
	if want, _ := DigestSQL("select name from emp where id = 77"); !cached || digest != want {
		t.Fatalf("digest %s (want %s) cached: %v", digest, want, cached)
	}
	// sqlsh asks with the EXPLAIN it just ran.
	if d, cached := db.PlanCached("EXPLAIN ANALYZE SELECT name FROM emp WHERE id = 1"); !cached || d != digest {
		t.Fatalf("under EXPLAIN: digest %s cached: %v", d, cached)
	}
	if _, cached := db.PlanCached("SELECT name FROM emp WHERE id > 1"); cached {
		t.Fatal("a shape never executed is cached")
	}
}

// TestCachedShapeReplansPerExecution: a cached shape is one parsed tree
// executed with each text's literals, so nothing the planner decides may
// stay on it. The shape of a two-table join runs with one literal, then
// with another after the smaller table has outgrown the other: both times
// its rows are those of the join written so that the planner must take it
// as declared (a LEFT JOIN keeps declaration order, pushes nothing down
// and scans sequentially — the naive plan, reached through SQL), and
// EXPLAIN shows the join order following the data.
func TestCachedShapeReplansPerExecution(t *testing.T) {
	db := NewDatabase("REPLAN")
	s := NewSession(db)
	mustExec(t, s, "CREATE TABLE small (k INTEGER PRIMARY KEY, tag VARCHAR(10))")
	mustExec(t, s, "CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER, v VARCHAR(10))")
	for k := 0; k < 3; k++ {
		mustExec(t, s, "INSERT INTO small VALUES (?, ?)", NewInt(int64(k)), NewString(fmt.Sprintf("t%d", k)))
	}
	for id := 1; id <= 40; id++ {
		mustExec(t, s, "INSERT INTO big VALUES (?, ?, ?)", NewInt(int64(id)), NewInt(int64(id%5)), NewString(fmt.Sprintf("v%d", id)))
	}
	join := func(min int) string {
		return fmt.Sprintf("SELECT b.id, s.tag FROM big b JOIN small s ON s.k = b.k WHERE b.id > %d ORDER BY b.id", min)
	}
	declared := func(min int) string {
		return fmt.Sprintf("SELECT b.id, s.tag FROM big b LEFT JOIN small s ON s.k = b.k WHERE b.id > %d AND s.k IS NOT NULL ORDER BY b.id", min)
	}
	firstScan := func(min int) string {
		plan := resultBytes(mustExec(t, s, "EXPLAIN "+join(min)))
		iSmall, iBig := strings.Index(plan, "Scan on small"), strings.Index(plan, "Scan on big")
		if iSmall < 0 || iBig < 0 {
			t.Fatalf("plan shows no scans:\n%s", plan)
		}
		if iSmall < iBig {
			return "small"
		}
		return "big"
	}
	run := func(min, want int) {
		t.Helper()
		got, ref := mustExec(t, s, join(min)), mustExec(t, s, declared(min))
		if len(got.Rows) != want || resultBytes(got) != resultBytes(ref) {
			t.Fatalf("b.id > %d: %d rows\n%s\ndeclared-order join\n%s", min, len(got.Rows), resultBytes(got), resultBytes(ref))
		}
	}

	run(10, 18)
	if first := firstScan(10); first != "small" {
		t.Fatalf("3 rows against ~13: want the join to start from small, starts from %s", first)
	}
	for k := 100; k < 300; k++ {
		mustExec(t, s, "INSERT INTO small VALUES (?, 'late')", NewInt(int64(k)))
	}
	base := db.PlanCacheStats()
	run(35, 3)
	if st := db.PlanCacheStats(); st.Hits-base.Hits != 2 || st.Misses != base.Misses {
		t.Fatalf("the second literal did not run the cached shape: %d hits, %d misses", st.Hits-base.Hits, st.Misses-base.Misses)
	}
	if first := firstScan(35); first != "big" {
		t.Fatalf("203 rows against ~13: want the join to start from big, starts from %s", first)
	}
}

// TestPlanCacheArgumentsShareTheShape: a ? with the caller's argument is
// a hole of the shape like an extracted literal. "… WHERE id = ?" with 5
// and "… WHERE id = 5" are one shape entry — one miss, then hits — with
// equal rows and the digest each text has on its own.
func TestPlanCacheArgumentsShareTheShape(t *testing.T) {
	db := NewDatabase("t")
	s := NewSession(db)
	planSeed(t, s)
	param, lit := "SELECT name FROM emp WHERE id = ?", "SELECT name FROM emp WHERE id = 5"
	base := db.PlanCacheStats()
	want := resultBytes(mustExec(t, s, param, NewInt(5)))
	if got := resultBytes(mustExec(t, s, lit)); got != want {
		t.Fatalf("the literal text answers\n%s\nthe ? text\n%s", got, want)
	}
	for id := int64(1); id <= 3; id++ {
		if res := mustExec(t, s, param, NewInt(id)); len(res.Rows) != 1 || res.Rows[0][0].S != fmt.Sprintf("n%02d", id) {
			t.Fatalf("id %d: %s", id, resultBytes(res))
		}
	}
	st := db.PlanCacheStats()
	if st.Misses-base.Misses != 1 || st.Hits-base.Hits != 4 || st.Bypasses != base.Bypasses || st.Size != base.Size+1 {
		t.Fatalf("want one new shape, 1 miss and 4 hits: %+v -> %+v", base, st)
	}
	fp, fl := db.plans.resolve(param, []Value{NewInt(5)}), db.plans.resolve(lit, nil)
	if wantDigest, _ := DigestSQL(param); fp.Digest != wantDigest || fl.Digest != wantDigest {
		t.Fatalf("digests %s (?) and %s (literal), want %s", fp.Digest, fl.Digest, wantDigest)
	}
	if fp.stmt != fl.stmt {
		t.Fatal("the two texts resolved to two trees")
	}
}

// TestPlanCacheDDLInvalidation: no DDL invalidates a cached parse — index
// DDL on the statement's table, DDL elsewhere, a rolled-back DDL
// transaction — and the statement is planned against the catalog as it is
// at each execution.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := NewDatabase("t")
	s := NewSession(db)
	planSeed(t, s)
	q := "SELECT name FROM emp WHERE salary > 1800 ORDER BY name"
	mustExec(t, s, q) // miss, cached
	want := resultBytes(mustExec(t, s, q))
	base := db.PlanCacheStats()

	mustExec(t, s, "CREATE INDEX emp_sal ON emp (salary)")
	res := mustExec(t, s, q)
	if len(res.Rows) == 0 || resultBytes(res) != want {
		t.Fatalf("result changed across CREATE INDEX:\n%s\nwant:\n%s", resultBytes(res), want)
	}
	wantLine(t, planText(t, s, "EXPLAIN "+q), "Index Scan on emp using emp_sal")

	mustExec(t, s, "CREATE TABLE other (x INTEGER)")
	if got := resultBytes(mustExec(t, s, q)); got != want {
		t.Fatalf("result changed across unrelated DDL:\n%s", got)
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "CREATE TABLE scratch (x INTEGER)")
	mustExec(t, s, "DROP INDEX emp_sal")
	mustExec(t, s, "ROLLBACK")
	if got := resultBytes(mustExec(t, s, q)); got != want {
		t.Fatalf("result changed across rolled-back DDL:\n%s", got)
	}
	wantLine(t, planText(t, s, "EXPLAIN "+q), "Index Scan on emp using emp_sal")

	if st := db.PlanCacheStats(); st.Hits-base.Hits != 3 || st.Misses != base.Misses {
		t.Fatalf("want three hits and no miss across DDL: %+v -> %+v", base, st)
	}
}

// TestPlanCacheDropTable: after its table is dropped, a cached statement
// fails exactly like a fresh parse would.
func TestPlanCacheDropTable(t *testing.T) {
	db := NewDatabase("t")
	s := NewSession(db)
	planSeed(t, s)
	q := "SELECT dname FROM dept WHERE id = 2"
	mustExec(t, s, q)
	mustExec(t, s, q)
	mustExec(t, s, "DROP TABLE dept")
	_, err := s.Exec(q)
	if err == nil {
		t.Fatal("query against dropped table succeeded")
	}
	db2 := NewDatabase("fresh")
	_, fresh := NewSession(db2).Exec(q)
	if fresh == nil || err.Error() != fresh.Error() {
		t.Fatalf("cached-path error %q != fresh error %q", err, fresh)
	}
}

// TestPlanCacheLRUEviction exercises the bounded-LRU unit behaviour
// directly: storing over capacity evicts the least recently used shape.
func TestPlanCacheLRUEviction(t *testing.T) {
	pc := newPlanCache(2)
	store := func(key string) { pc.store(&planEntry{key: key, facts: Facts{stmt: &SelectStmt{}}}) }
	lookup := func(key string) *planEntry { return pc.lookup([]byte(key)) }
	store("a")
	store("b")
	if lookup("a") == nil { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	store("c")
	if pc.len() != 2 {
		t.Fatalf("len=%d want 2", pc.len())
	}
	if lookup("b") != nil {
		t.Fatal("b survived eviction")
	}
	if lookup("a") == nil || lookup("c") == nil {
		t.Fatal("a or c evicted wrongly")
	}
}

// TestPlanCacheVerbatimRepeat: a verbatim repeat is a shape-map hit, and
// stays one across DDL on its table.
func TestPlanCacheVerbatimRepeat(t *testing.T) {
	db := NewDatabase("t")
	s := NewSession(db)
	planSeed(t, s)
	q := "SELECT name FROM emp WHERE id = 9"
	mustExec(t, s, q)
	base := db.PlanCacheStats()
	res := mustExec(t, s, q)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "n09" {
		t.Fatalf("repeat's result wrong: %v", res.Rows)
	}
	st := db.PlanCacheStats()
	if st.Hits-base.Hits != 1 || st.Misses != base.Misses {
		t.Fatalf("verbatim repeat not a hit: %+v -> %+v", base, st)
	}
	mustExec(t, s, "CREATE INDEX emp_name ON emp (name)")
	mustExec(t, s, "CREATE TABLE note (x INTEGER)")
	res = mustExec(t, s, q)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "n09" {
		t.Fatalf("repeat's result wrong after DDL: %v", res.Rows)
	}
	if got := db.PlanCacheStats().Hits - st.Hits; got != 1 {
		t.Fatalf("verbatim repeat across DDL not a hit: %d", got)
	}
}

// TestLargeStatementsAreNotPinned: a few hundred distinct statements of
// 32 KB each — a shape each, half of them negative entries — leave the plan
// cache holding at most maxPlanCacheBytes of keys and normalized texts, by
// its own count and by a recount of what it holds, and the statement
// registry holding no text over maxStmtText.
func TestLargeStatementsAreNotPinned(t *testing.T) {
	db := NewDatabase("big")
	reg := NewStatementStats(1000)
	db.SetStatementStats(reg)
	s := NewSession(db)
	mustExec(t, s, "CREATE TABLE t (x INTEGER)")
	name := strings.Repeat("y", 32<<10)
	for i := 0; i < 150; i++ {
		mustExec(t, s, fmt.Sprintf("SELECT x AS a%d%s FROM t", i, name))
		if _, err := s.Exec(fmt.Sprintf("SELECT x a%d%s y FROM t", i, name)); err == nil {
			t.Fatal("a projection of two aliases parsed")
		}
	}
	pc := db.plans
	pc.mu.Lock()
	held := 0
	for _, e := range pc.entries {
		held += len(e.key) + len(e.facts.Norm)
	}
	counted, n := pc.bytes, len(pc.entries)
	pc.mu.Unlock()
	if held != counted || held > maxPlanCacheBytes || n < 2 {
		t.Errorf("the plan cache holds %d shapes of %d bytes, counts %d bytes; bound %d", n, held, counted, maxPlanCacheBytes)
	}
	longest := 0
	for _, st := range reg.Snapshot() {
		longest = max(longest, len(st.Statement))
	}
	if reg.Len() < 150 || longest > maxStmtText+len("…") {
		t.Errorf("the registry holds %d statements, the longest %d bytes; bound %d", reg.Len(), longest, maxStmtText)
	}
}

// TestPlanCacheConcurrentDDL races executions of one cached parse against
// repeated DDL on the same table — an index that comes and goes, a column
// added and dropped, a rolled-back DDL transaction; run under -race this
// checks that planning per execution is safe against concurrent DDL.
func TestPlanCacheConcurrentDDL(t *testing.T) {
	db := NewDatabase("t")
	setup := NewSession(db)
	planSeed(t, setup)
	const readers = 4
	var wg, ready sync.WaitGroup
	errc := make(chan error, readers+1)
	done := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		ready.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewSession(db)
			first := true
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id := i%30 + 1
				res, err := s.Exec(fmt.Sprintf("SELECT name FROM emp WHERE id = %d", id))
				if first {
					// The shape is cached now; let the DDL churn begin.
					first = false
					ready.Done()
				}
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if len(res.Rows) != 1 {
					errc <- fmt.Errorf("reader %d: id=%d got %d rows", g, id, len(res.Rows))
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		ready.Wait()
		s := NewSession(db)
		for i := 0; i < 50; i++ {
			for _, ddl := range []string{
				"CREATE INDEX emp_stress ON emp (salary)",
				"DROP INDEX emp_stress",
				"CREATE TABLE note (x INTEGER)",
				"BEGIN", "DROP INDEX emp_dept", "CREATE TABLE scratch (x INTEGER)", "ROLLBACK",
				"DROP TABLE note",
			} {
				if _, err := s.Exec(ddl); err != nil {
					errc <- fmt.Errorf("%s: %v", ddl, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// One shape, parsed once however the index came and went.
	mustExec(t, setup, "SELECT name FROM emp WHERE id = 1")
	if st := db.PlanCacheStats(); st.Hits == 0 {
		t.Fatalf("stress run recorded no hits: %+v", st)
	}
}

// TestArgumentShapesConcurrent: sessions on their own goroutines each run
// one shape with ? arguments, new values every time — a text of ? alone,
// whose arguments are bound as the caller passed them, and texts mixing
// ? and literals, whose values are merged into a slice of their own —
// and every row answers for its own arguments. Under -race it also
// checks that no pooled shaper hands one session's values to another.
func TestArgumentShapesConcurrent(t *testing.T) {
	db := NewDatabase("t")
	planSeed(t, NewSession(db))
	shapes := []struct {
		sql  func(id int) string
		args func(tag string, id int) []Value
	}{
		{func(int) string { return "SELECT ?, name FROM emp WHERE id = ?" },
			func(tag string, id int) []Value { return []Value{NewString(tag), NewInt(int64(id))} }},
		{func(id int) string { return fmt.Sprintf("SELECT ?, name FROM emp WHERE id = %d", id) },
			func(tag string, _ int) []Value { return []Value{NewString(tag)} }},
		{func(id int) string { return fmt.Sprintf("SELECT ?, name FROM emp WHERE dept = %d AND id = ?", id%5+1) },
			func(tag string, id int) []Value { return []Value{NewString(tag), NewInt(int64(id))} }},
		{func(id int) string { return "SELECT ?, name FROM emp WHERE name = 'n01' OR id = ?" },
			func(tag string, id int) []Value { return []Value{NewString(tag), NewInt(int64(id))} }},
	}
	const sessions, rounds = 8, 300
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, sh := NewSession(db), shapes[g%len(shapes)]
			for i := 0; i < rounds; i++ {
				id, tag := i%29+2, fmt.Sprintf("s%d-%d", g, i)
				res, err := s.Exec(sh.sql(id), sh.args(tag, id)...)
				if err != nil {
					errc <- fmt.Errorf("session %d: %v", g, err)
					return
				}
				found := false
				for _, r := range res.Rows {
					found = found || r[1].S == fmt.Sprintf("n%02d", id)
					if r[0].S != tag {
						found = false
						break
					}
				}
				if !found {
					errc <- fmt.Errorf("session %d, id %d, tag %s: %s", g, id, tag, resultBytes(res))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := db.PlanCacheStats(); st.Misses > uint64(len(shapes)*sessions) || st.Hits < sessions*rounds/2 {
		t.Fatalf("the shapes were not served from the cache: %+v", st)
	}
	// The shapers back on the free list keep no session's values.
	var idle []*shaper
	for len(shapers) > 0 {
		idle = append(idle, <-shapers)
	}
	for _, sh := range idle {
		if sh.args != nil || slices.ContainsFunc(sh.vals[:cap(sh.vals)], func(v Value) bool { return v != Null }) {
			t.Errorf("a released shaper holds values: args %v, vals %v", sh.args, sh.vals[:cap(sh.vals)])
		}
		sh.release()
	}
}

// TestParamizeTokens pins the shaper's literal-extraction rules: strings
// and numbers extract, ORDER BY ordinals stay literal, a caller's ? stays
// a parameter (without arguments it takes no value), and non-DML
// statements bail out. In all
// extracted cases the normalized shape is unchanged — the cache key is
// shared with statement stats by construction.
func TestParamizeTokens(t *testing.T) {
	cases := []struct {
		sql   string
		ok    bool
		nvals int
	}{
		{"SELECT * FROM t WHERE id = 7 AND name = 'x'", true, 2},
		{"SELECT name FROM t ORDER BY 2", true, 0},
		{"SELECT name FROM t WHERE id = 3 ORDER BY 1", true, 1}, // 3; ordinal kept
		{"INSERT INTO t VALUES (1, 'a', 2.5)", true, 3},
		{"SELECT * FROM t WHERE id = ?", true, 0},
		{"CREATE TABLE t (id INTEGER)", false, 0},
		{"EXPLAIN SELECT * FROM t WHERE id = 1", false, 0},
	}
	for _, c := range cases {
		toks, err := lexSQL(c.sql)
		if err != nil {
			t.Fatalf("%s: lex: %v", c.sql, err)
		}
		var sh shaper
		ptoks, ok := sh.shapeTokens(toks)
		vals := sh.values()
		if ok != c.ok {
			t.Fatalf("%s: ok=%v want %v", c.sql, ok, c.ok)
		}
		if !ok {
			continue
		}
		if len(vals) != c.nvals {
			t.Fatalf("%s: extracted %d values, want %d (%v)", c.sql, len(vals), c.nvals, vals)
		}
		if got, want := normalizeTokens(ptoks), normalizeTokens(toks); got != want {
			t.Fatalf("%s: normalized shape changed\nparamized: %s\noriginal:  %s", c.sql, got, want)
		}
	}
}

// TestNotLikeSelectivityOrdersJoin: the planner starts a join from the
// relation it expects to be smallest after its pushed filters. LIKE is
// estimated to keep a quarter of the rows, so NOT LIKE keeps the other
// three quarters — 100 rows under NOT LIKE are more than 50 unfiltered
// ones, 100 rows under LIKE fewer — and the results do not depend on it.
func TestNotLikeSelectivityOrdersJoin(t *testing.T) {
	s := NewSession(NewDatabase("P"))
	mustExec(t, s, "CREATE TABLE big (id INT, name VARCHAR(10))")
	mustExec(t, s, "CREATE TABLE mid (id INT, tag VARCHAR(10))")
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO big VALUES (%d, 'n%d')", i, i))
	}
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO mid VALUES (%d, 't%d')", i, i))
	}
	for _, c := range []struct {
		where, first, est string
		rows              int
	}{
		{"big.name NOT LIKE 'n1%'", "mid", "Est: ~75 ", 39},
		{"big.name LIKE 'n1%'", "big", "Est: ~25 ", 11},
	} {
		sql := "SELECT big.id FROM big JOIN mid ON big.id = mid.id WHERE " + c.where
		plan := planText(t, s, "EXPLAIN "+sql)
		iBig, iMid := strings.Index(plan, "Seq Scan on big"), strings.Index(plan, "Seq Scan on mid")
		if iBig < 0 || iMid < 0 || (c.first == "mid") != (iMid < iBig) {
			t.Errorf("%s: want the join to start from %s:\n%s", c.where, c.first, plan)
		}
		wantLine(t, plan, c.est)
		if res := mustExec(t, s, sql); len(res.Rows) != c.rows {
			t.Errorf("%s: %d rows, want %d", c.where, len(res.Rows), c.rows)
		}
	}
}

// TestIndexableShape pins the classifier planIndexScan and implied
// equality start from: which conjuncts have a shape an index can serve,
// with the operator as if the column were on the left.
func TestIndexableShape(t *testing.T) {
	for _, c := range []struct {
		where, col, op string
		ok             bool
	}{
		{"id = 7", "id", "=", true},
		{"7 = id", "id", "=", true},
		{"10 >= id", "id", "<=", true},
		{"id < ? + 1", "id", "<", true},
		{"name LIKE 'n%'", "name", "like", true},
		{"name LIKE ?", "name", "like", true},
		{"name NOT LIKE 'n%'", "", "", false},
		{"id = dept", "", "", false},
		{"id = dept + ROUND(1)", "", "", false}, // a column beside a function call is still a column
		{"id <> 7", "", "", false},
		{"id + 1 = 7", "", "", false},
		{"id IN (1, 2)", "", "", false},
	} {
		st, err := Parse("SELECT * FROM emp WHERE " + c.where)
		if err != nil {
			t.Fatal(err)
		}
		sh, ok := indexableShape(st.(*SelectStmt).Where)
		if ok != c.ok || (ok && (sh.col.Column != c.col || sh.op != c.op)) {
			t.Errorf("%s: shape %+v, %v; want %s %s, %v", c.where, sh, ok, c.col, c.op, c.ok)
		}
	}
}
