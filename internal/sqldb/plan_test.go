package sqldb

import (
	"fmt"
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
// (comma and JOIN syntax), grouping, IN lists, subqueries, ordinals, and
// DML. Multi-row results carry ORDER BY so row order is pinned.
var planCorpus = []string{
	"SELECT name, salary FROM emp WHERE id = 7",
	"SELECT name FROM emp WHERE salary > 1500 AND dept = 2 ORDER BY name",
	"SELECT name FROM emp WHERE name LIKE 'n1%' ORDER BY 1",
	"SELECT name FROM emp WHERE dept IN (1, 2) ORDER BY name DESC",
	"SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.id AND d.loc = 'west' ORDER BY e.name",
	"SELECT * FROM emp e JOIN dept d ON e.dept = d.id WHERE d.id = 3 ORDER BY e.id",
	"SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept ORDER BY dept",
	"SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)",
	"SELECT dname FROM dept WHERE id < 4 ORDER BY dname LIMIT 2 OFFSET 1",
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

// TestPlanCacheExplicitParamsBypass: calls that already carry bind
// parameters skip the cache entirely.
func TestPlanCacheExplicitParamsBypass(t *testing.T) {
	db := NewDatabase("t")
	s := NewSession(db)
	planSeed(t, s)
	base := db.PlanCacheStats()
	res := mustExec(t, s, "SELECT name FROM emp WHERE id = ?", NewInt(5))
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	st := db.PlanCacheStats()
	if st.Hits != base.Hits || st.Misses != base.Misses {
		t.Fatalf("parameterized call touched the cache: %+v -> %+v", base, st)
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
	store := func(key string) {
		pc.store(&planEntry{key: key, stmt: &SelectStmt{}}, "text of "+key, nil)
	}
	lookup := func(key string) *planEntry { return pc.lookup([]byte(key), "text of "+key, nil) }
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
	// The text that resolved to b still does, and a hit on it does not put
	// the shape back.
	if te := pc.lookupText("text of b"); te == nil || te.shape.key != "b" || pc.len() != 2 {
		t.Fatalf("text entry of an evicted shape: %+v, %d shapes", te, pc.len())
	}
	// A negative entry gets no text entry.
	pc.store(&planEntry{key: "neg"}, "text of neg", nil)
	if pc.lookupText("text of neg") != nil {
		t.Fatal("negative entry has a text entry")
	}
}

// TestPlanCacheTextFastPath: a verbatim repeat is served from the
// exact-text map, across DDL on its table too, and the text map honours
// its own LRU bound.
func TestPlanCacheTextFastPath(t *testing.T) {
	db := NewDatabase("t")
	s := NewSession(db)
	planSeed(t, s)
	q := "SELECT name FROM emp WHERE id = 9"
	mustExec(t, s, q)
	if db.plans.lookupText(q) == nil {
		t.Fatal("text entry not stored after first execution")
	}
	base := db.PlanCacheStats()
	res := mustExec(t, s, q)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "n09" {
		t.Fatalf("text-path result wrong: %v", res.Rows)
	}
	st := db.PlanCacheStats()
	if st.Hits-base.Hits != 1 || st.Misses != base.Misses {
		t.Fatalf("verbatim repeat not a hit: %+v -> %+v", base, st)
	}
	mustExec(t, s, "CREATE INDEX emp_name ON emp (name)")
	mustExec(t, s, "ALTER TABLE emp ADD COLUMN note VARCHAR(10) DEFAULT 'x'")
	res = mustExec(t, s, q)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "n09" {
		t.Fatalf("text-path result wrong after DDL: %v", res.Rows)
	}
	if got := db.PlanCacheStats().Hits - st.Hits; got != 1 {
		t.Fatalf("verbatim repeat across DDL not a hit: %d", got)
	}
	// The text map is bounded at textCapFactor times the shape cap.
	pc := newPlanCache(1)
	e := &planEntry{key: "k", stmt: &SelectStmt{}}
	pc.store(e, "q", nil)
	for i := 0; i < 3*textCapFactor; i++ {
		pc.lookup([]byte("k"), fmt.Sprintf("q%d", i), nil)
	}
	if pc.tlru.Len() != textCapFactor || len(pc.texts) != textCapFactor {
		t.Fatalf("text LRU holds %d entries, want %d", pc.tlru.Len(), textCapFactor)
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
				"ALTER TABLE emp ADD COLUMN note VARCHAR(10) DEFAULT 'n'",
				"BEGIN", "DROP INDEX emp_dept", "CREATE TABLE scratch (x INTEGER)", "ROLLBACK",
				"ALTER TABLE emp DROP COLUMN note",
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

// TestParamizeTokens pins the shaper's literal-extraction rules: strings
// and numbers extract, ORDER BY ordinals and type-suffix lengths stay
// literal, and pre-parameterized or non-DML statements bail out. In all
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
		{"SELECT name FROM t WHERE id = 3 ORDER BY 1 LIMIT 5", true, 2}, // 3 and 5; ordinal kept
		{"SELECT CAST(id AS VARCHAR(10)) FROM t WHERE id = 5", true, 1},
		{"INSERT INTO t VALUES (1, 'a', 2.5)", true, 3},
		{"SELECT * FROM t WHERE id = ?", false, 0},
		{"CREATE TABLE t (id INTEGER)", false, 0},
		{"EXPLAIN SELECT * FROM t WHERE id = 1", false, 0},
		{"SELECT * FROM (SELECT id FROM t ORDER BY 1) s WHERE id = 9", true, 1},
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
		{"name LIKE 'n!%' ESCAPE '!'", "", "", false},
		{"id = dept", "", "", false},
		{"id = dept + ABS(1)", "", "", false}, // a column beside a function call is still a column
		{"id = (SELECT MAX(id) FROM dept)", "", "", false},
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
