package sqldb

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/explain.golden from the engine under test")

// explainShapes are the FROM shapes and statement kinds beside planCorpus
// that the golden pins, over the planSeed schema: what the planner may
// reorder, what it must leave in declaration order (LEFT joins), DML
// scans, and (explainErrors) errors.
var explainShapes = []string{
	// One relation: no index, two competing indexes, flipped operands.
	"SELECT * FROM emp",
	"SELECT name FROM emp x WHERE x.salary > 1500",
	"SELECT name FROM emp WHERE id > 5 AND dept = 2 ORDER BY name",
	"SELECT name FROM emp WHERE dept = 2 AND id = 7",
	"SELECT name FROM emp WHERE 10 >= id AND salary > 0 ORDER BY id",
	"SELECT name FROM emp WHERE id = NULL",
	"SELECT name FROM emp WHERE id = 'seven'",
	"SELECT name FROM emp WHERE dept = 1 OR id = 2 ORDER BY id",
	"SELECT 1 + 2",
	// Inner joins the planner may reorder.
	"SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id ORDER BY e.id",
	"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.id WHERE e.id = 4 AND d.loc = 'south'",
	"SELECT e.name FROM emp e CROSS JOIN dept d WHERE d.id = 1 AND e.id < 3 ORDER BY e.id",
	"SELECT a.name, b.name, d.dname FROM emp a, emp b, dept d WHERE a.dept = d.id AND b.id = a.id AND d.loc = 'hq' ORDER BY a.id",
	"SELECT name, dname FROM emp, dept WHERE dept = dept.id AND loc = 'east' ORDER BY name",
	"SELECT id FROM emp e, dept d WHERE e.dept = d.id",
	// orders.d2w's spend report: the key side reads one row, by implied
	// equality.
	"SELECT d.dname, COUNT(*) AS n, SUM(e.salary) AS total FROM dept d JOIN emp e ON d.id = e.dept WHERE e.dept = 3 GROUP BY d.dname ORDER BY d.dname",
	// LEFT joins: declaration order, nothing pushed below them.
	"SELECT d.dname, e.name FROM dept d LEFT JOIN emp e ON e.dept = d.id AND e.id > 25 WHERE d.loc = 'west' ORDER BY e.name",
	"SELECT e.name, d.dname FROM emp e LEFT JOIN dept d ON e.dept = d.id WHERE e.id = 3",
	"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.id LEFT JOIN dept d2 ON d2.id = d.id + 1 WHERE d.id = 5 ORDER BY e.id",
	"SELECT d.dname, d2.loc FROM dept d LEFT JOIN emp e ON e.dept = d.id AND e.id = 1, dept d2 WHERE d2.id = d.id ORDER BY d.id",
	// DML scans.
	"UPDATE emp SET salary = salary + 1 WHERE dept = 3 AND id > 20",
	"UPDATE emp SET salary = 1 WHERE name = 'n05'",
	"DELETE FROM emp WHERE id >= 29",
	"DELETE FROM emp e WHERE e.dept = 4 AND e.salary < 0",
}

// explainErrors are the statements of explainShapes that fail: where an
// unknown table surfaces, and what only execution sees.
var explainErrors = []string{
	"SELECT * FROM nosuch",
	"SELECT * FROM emp e, nosuch n WHERE e.id = n.id",
	"SELECT * FROM nosuch n JOIN emp e ON e.id = n.id",
	"SELECT * FROM emp e LEFT JOIN nosuch n ON e.id = n.id",
	"SELECT nocol FROM emp e, dept d WHERE e.dept = d.id",
	"UPDATE nosuch SET a = 1",
	"DELETE FROM nosuch WHERE a = 1",
}

// explainFixtureStmts are the statements explain_test.go runs over
// explainDB, pinned whole here where those tests assert substrings.
var explainFixtureStmts = []string{
	"SELECT * FROM t WHERE val <= 50",
	"SELECT * FROM t WHERE id = 7",
	"SELECT a.id FROM t AS a JOIN t AS b ON a.id = b.id WHERE a.val <= 30",
	"INSERT INTO t (id, grp, val) VALUES (100, 'z', 0), (101, 'z', 0)",
	"UPDATE t SET val = val + 1000 WHERE id <= 5",
	"DELETE FROM t WHERE id >= 100",
	"CREATE TABLE x (id INT)",
}

var explainTimeRE = regexp.MustCompile(`time=[^ )]+`)

// explainGoldenText renders every statement plain and under ANALYZE, the
// observed times masked, an error as its text.
func explainGoldenText(sb *strings.Builder, s *Session, stmts []string, params ...Value) {
	for _, q := range stmts {
		for _, head := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
			sb.WriteString(head + q + "\n")
			res, err := s.Exec(head+q, params...)
			if err != nil {
				sb.WriteString("  ERROR: " + err.Error() + "\n")
				continue
			}
			for _, row := range res.Rows {
				sb.WriteString("  " + explainTimeRE.ReplaceAllString(row[0].String(), "time=…") + "\n")
			}
		}
		sb.WriteByte('\n')
	}
}

// TestExplainGolden pins what EXPLAIN and EXPLAIN ANALYZE print, byte for
// byte: the plan shapes, where Est: lines appear, which counters land on
// which node, and the error a statement that cannot be planned gives.
func TestExplainGolden(t *testing.T) {
	var sb strings.Builder

	sb.WriteString("# planSeed: planCorpus\n\n")
	s := NewSession(NewDatabase("GOLDEN"))
	defer s.Close()
	planSeed(t, s)
	explainGoldenText(&sb, s, planCorpus)

	sb.WriteString("# planSeed: shapes\n\n")
	explainGoldenText(&sb, s, explainShapes)
	// The writes two DML shapes with subqueries made under EXPLAIN ANALYZE
	// before the grammar lost them, which the estimates below still count.
	mustExec(t, s, "UPDATE emp SET dept = 5 WHERE id = 5")
	mustExec(t, s, "INSERT INTO emp VALUES (200, 'sub', 1, 1.5)")
	explainGoldenText(&sb, s, explainErrors)

	sb.WriteString("# planSeed: bind parameters, and LIKE through an index\n\n")
	mustExec(t, s, "CREATE INDEX emp_name ON emp (name)")
	explainGoldenText(&sb, s, []string{
		"SELECT name FROM emp WHERE name LIKE 'n0%' ORDER BY name",
		"SELECT name FROM emp WHERE name LIKE '%1' AND salary > 0 ORDER BY name",
	})
	explainGoldenText(&sb, s, []string{
		"SELECT name FROM emp WHERE id = ? AND name LIKE ?",
		"SELECT e.name FROM emp e, dept d WHERE e.dept = d.id AND d.id = ? AND e.name LIKE ? ORDER BY e.name",
	}, NewInt(2), NewString("n%"))
	explainGoldenText(&sb, s, []string{
		"SELECT name FROM emp WHERE name LIKE ? AND salary > 0 ORDER BY name",
	}, NewString("n2%"))

	sb.WriteString("# explainDB\n\n")
	explainGoldenText(&sb, explainDB(t), explainFixtureStmts)

	got := sb.String()
	const file = "testdata/explain.golden"
	if *updateGolden {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (generate with go test -run TestExplainGolden -update-golden ./internal/sqldb)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		stmt := i
		for stmt > 0 && !strings.HasPrefix(gl[min(stmt, len(gl)-1)], "EXPLAIN") {
			stmt--
		}
		t.Errorf("%s differs at line %d, under %q\n got: %q\nwant: %q", file, i+1,
			gl[min(stmt, len(gl)-1)], gl[min(i, len(gl)-1)], wl[min(i, len(wl)-1)])
	}
}
