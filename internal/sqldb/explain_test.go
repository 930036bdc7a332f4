package sqldb

import (
	"fmt"
	"strings"
	"testing"

	"db2www/internal/obs"
)

// explainDB builds the fixture: t has 20 rows, id 1..20 (PRIMARY KEY,
// so id predicates can route through t_pkey), grp alternating 'a'/'b',
// val = id*10 (no index, so val predicates force a seq scan).
func explainDB(t *testing.T) *Session {
	t.Helper()
	db := NewDatabase("EXPLAIN")
	sess := NewSession(db)
	t.Cleanup(func() { sess.Close() })
	mustExec(t, sess, "CREATE TABLE t (id INT PRIMARY KEY, grp VARCHAR(10), val INT)")
	for i := 1; i <= 20; i++ {
		grp := "a"
		if i%2 == 1 {
			grp = "b"
		}
		mustExec(t, sess, fmt.Sprintf("INSERT INTO t (id, grp, val) VALUES (%d, '%s', %d)", i, grp, i*10))
	}
	return sess
}

// planText runs an EXPLAIN statement and returns the rendered plan.
// (mustExec is shared with db_test.go.)
func planText(t *testing.T, sess *Session, sql string) string {
	t.Helper()
	res := mustExec(t, sess, sql)
	if len(res.Columns) != 1 || res.Columns[0] != "QUERY PLAN" {
		t.Fatalf("%s: columns = %v, want [QUERY PLAN]", sql, res.Columns)
	}
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		lines[i] = row[0].String()
	}
	return strings.Join(lines, "\n")
}

func wantLine(t *testing.T, plan, substr string) {
	t.Helper()
	if !strings.Contains(plan, substr) {
		t.Errorf("plan missing %q:\n%s", substr, plan)
	}
}

// TestExplainAnalyzeSeqScan proves the per-operator counters against the
// executed result: the scan examines every row, the filter keeps exactly
// the rows the bare statement returns.
func TestExplainAnalyzeSeqScan(t *testing.T) {
	sess := explainDB(t)
	bare := mustExec(t, sess, "SELECT * FROM t WHERE val <= 50")
	if len(bare.Rows) != 5 {
		t.Fatalf("bare query returned %d rows, want 5", len(bare.Rows))
	}
	plan := planText(t, sess, "EXPLAIN ANALYZE SELECT * FROM t WHERE val <= 50")
	wantLine(t, plan, fmt.Sprintf("Select (rows=%d time=", len(bare.Rows)))
	wantLine(t, plan, fmt.Sprintf("Filter: (val <= 50) (in=20 out=%d)", len(bare.Rows)))
	wantLine(t, plan, "-> Seq Scan on t (examined=20 returned=20 time=")
}

// TestExplainAnalyzeIndexScan: an equality predicate on the primary key
// routes through t_pkey and examines only the matching candidate.
func TestExplainAnalyzeIndexScan(t *testing.T) {
	sess := explainDB(t)
	bare := mustExec(t, sess, "SELECT * FROM t WHERE id = 7")
	if len(bare.Rows) != 1 {
		t.Fatalf("bare query returned %d rows, want 1", len(bare.Rows))
	}
	plan := planText(t, sess, "EXPLAIN ANALYZE SELECT * FROM t WHERE id = 7")
	wantLine(t, plan, "-> Index Scan on t using t_pkey (examined=1 returned=1 time=")
	wantLine(t, plan, "Index Cond: (id = 7)")
	wantLine(t, plan, fmt.Sprintf("Select (rows=%d time=", len(bare.Rows)))

	// The same query without ANALYZE renders structure only — the chosen
	// access path, but no counters.
	dry := planText(t, sess, "EXPLAIN SELECT * FROM t WHERE id = 7")
	wantLine(t, dry, "-> Index Scan on t using t_pkey")
	if strings.Contains(dry, "examined=") || strings.Contains(dry, "rows=") {
		t.Errorf("plain EXPLAIN leaked runtime counters:\n%s", dry)
	}
}

// TestExplainAnalyzeJoin: the planner pushes the WHERE conjunct below
// the join (the left scan keeps 3 of 20 rows) and joins on the equality
// with a hash, so the join examines the 3 pairs with equal ids rather than
// 3x20 or the full cross product, and the plan carries the planner's
// cardinality estimates.
func TestExplainAnalyzeJoin(t *testing.T) {
	sess := explainDB(t)
	bare := mustExec(t, sess, "SELECT a.id FROM t AS a JOIN t AS b ON a.id = b.id WHERE a.val <= 30")
	if len(bare.Rows) != 3 {
		t.Fatalf("bare query returned %d rows, want 3", len(bare.Rows))
	}
	plan := planText(t, sess, "EXPLAIN ANALYZE SELECT a.id FROM t AS a JOIN t AS b ON a.id = b.id WHERE a.val <= 30")
	wantLine(t, plan, "Hash Join (examined=3 returned=3 time=")
	wantLine(t, plan, "Hash Cond: (a.id = b.id)")
	wantLine(t, plan, "-> Seq Scan on t as a (examined=20 returned=20 time=")
	wantLine(t, plan, "-> Seq Scan on t as b (examined=20 returned=20 time=")
	wantLine(t, plan, fmt.Sprintf("Filter: (a.val <= 30) (in=20 out=%d)", len(bare.Rows)))
	wantLine(t, plan, "Est: ~")
	wantLine(t, plan, fmt.Sprintf("Select (rows=%d time=", len(bare.Rows)))
}

// TestExplainAnalyzeStages: aggregation reports exact input/output row
// counts.
func TestExplainAnalyzeStages(t *testing.T) {
	sess := explainDB(t)
	bare := mustExec(t, sess, "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp")
	if len(bare.Rows) != 2 {
		t.Fatalf("bare query returned %d rows, want 2", len(bare.Rows))
	}
	plan := planText(t, sess, "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp")
	wantLine(t, plan, "Aggregate (in=20 out=2)") // two groups: 'a' and 'b'
	wantLine(t, plan, "Select (rows=2 time=")
}

// TestExplainDMLSideEffects: plain EXPLAIN of DML must not execute it;
// EXPLAIN ANALYZE must, reporting exact affected-row counts.
func TestExplainDMLSideEffects(t *testing.T) {
	sess := explainDB(t)
	count := func() string {
		return mustExec(t, sess, "SELECT COUNT(*) FROM t").Rows[0][0].String()
	}

	dry := planText(t, sess, "EXPLAIN INSERT INTO t (id, grp, val) VALUES (100, 'z', 0)")
	wantLine(t, dry, "Insert on t")
	wantLine(t, dry, "Rows: 1")
	if got := count(); got != "20" {
		t.Fatalf("plain EXPLAIN INSERT executed: table has %s rows, want 20", got)
	}

	ins := planText(t, sess, "EXPLAIN ANALYZE INSERT INTO t (id, grp, val) VALUES (100, 'z', 0), (101, 'z', 0)")
	wantLine(t, ins, "Insert on t (rows=2 time=")
	if got := count(); got != "22" {
		t.Fatalf("EXPLAIN ANALYZE INSERT did not execute: table has %s rows, want 22", got)
	}

	upd := planText(t, sess, "EXPLAIN ANALYZE UPDATE t SET val = val + 1000 WHERE id <= 5")
	wantLine(t, upd, "Update on t (rows=5 time=")
	wantLine(t, upd, "Set: val = (val + 1000)")
	changed := mustExec(t, sess, "SELECT COUNT(*) FROM t WHERE val > 1000")
	if got := changed.Rows[0][0].String(); got != "5" {
		t.Fatalf("EXPLAIN ANALYZE UPDATE touched %s rows, want 5", got)
	}

	del := planText(t, sess, "EXPLAIN ANALYZE DELETE FROM t WHERE id >= 100")
	wantLine(t, del, "Delete on t (rows=2 time=")
	if got := count(); got != "20" {
		t.Fatalf("EXPLAIN ANALYZE DELETE left %s rows, want 20", got)
	}
}

// TestExplainAnalyzeFilesPlan: a successful EXPLAIN ANALYZE stores its
// rendering in the statement registry under the *bare* statement's digest,
// where /debug/statements?digest= readers look for it.
func TestExplainAnalyzeFilesPlan(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	db := NewDatabase("PLANFILE")
	stats := NewStatementStats(0)
	db.SetStatementStats(stats)
	sess := NewSession(db)
	defer sess.Close()
	mustExec(t, sess, "CREATE TABLE p (id INT PRIMARY KEY)")
	mustExec(t, sess, "INSERT INTO p (id) VALUES (1)")
	mustExec(t, sess, "EXPLAIN ANALYZE SELECT * FROM p WHERE id = 1")

	digest, _ := DigestSQL("SELECT * FROM p WHERE id = 99")
	st, ok := stats.Get(digest)
	if !ok {
		t.Fatalf("bare statement digest %s not in the registry", digest)
	}
	if !strings.Contains(st.LastPlan, "Index Scan on p using p_pkey") {
		t.Errorf("stored plan does not show the access path:\n%s", st.LastPlan)
	}
}

func TestExplainUnsupportedStatement(t *testing.T) {
	sess := explainDB(t)
	if _, err := sess.Exec("EXPLAIN CREATE TABLE x (id INT)"); err == nil {
		t.Fatal("EXPLAIN of DDL should be a syntax error")
	}
}

// wantPlan compares a whole rendered plan, observed times masked.
func wantPlan(t *testing.T, sess *Session, sql, want string) {
	t.Helper()
	got := explainTimeRE.ReplaceAllString(planText(t, sess, sql), "time=…")
	if want = strings.TrimSpace(want); got != want {
		t.Errorf("%s\n got:\n%s\nwant:\n%s", sql, got, want)
	}
}

// TestExplainAnalyzeCountersStayOnTheirNodes: ANALYZE reads the counters
// off the plan nodes the executor ran, so they cannot land on another
// node that happens to look alike — both sides of the join scan the same
// table here.
func TestExplainAnalyzeCountersStayOnTheirNodes(t *testing.T) {
	sess := explainDB(t)
	wantPlan(t, sess, "EXPLAIN ANALYZE SELECT a.id FROM t a JOIN t b ON b.id = a.id WHERE a.id >= 15 AND b.val > 150", `
Select (rows=5 time=…)
  -> Hash Join (examined=5 returned=5 time=…)
     Hash Cond: (b.id = a.id)
     Est: ~2 (cost=53.3)
     -> Index Scan on t as a using t_pkey (examined=6 returned=6 time=…)
        Index Cond: (a.id >= 15)
        Filter: (a.id >= 15) (in=6 out=6)
        Est: ~7 (cost=20.0)
     -> Seq Scan on t as b (examined=20 returned=20 time=…)
        Filter: (b.val > 150) (in=20 out=5)
        Est: ~7 (cost=20.0)`)
}
