package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestNonFiniteNumbersAreRejected: NaN compared equal to every number
// (`WHERE a = 5` returned the NaN row) and a dump wrote ±Inf as a bare
// word, so neither is a value a numeric column takes — from a string or
// from a script that is being restored (22P02); arithmetic that overflows
// raises 22003 before there is anything to store.
func TestNonFiniteNumbersAreRejected(t *testing.T) {
	s := NewSession(NewDatabase("NAN"))
	mustExec(t, s, "CREATE TABLE t (id INTEGER, a DOUBLE)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 5)")
	for _, c := range []struct{ q, code string }{
		{"INSERT INTO t VALUES (2, 'NaN')", CodeInvalidText},
		{"INSERT INTO t VALUES (2, '+Inf')", CodeInvalidText},
		{"INSERT INTO t VALUES (2, '-Infinity')", CodeInvalidText},
		{"INSERT INTO t VALUES (2, 1e308 * 10)", CodeNumericRange},
		{"INSERT INTO t VALUES ('nan', 2)", CodeInvalidText},
		{"INSERT INTO t VALUES (1e308 * 10, 2)", CodeNumericRange},
		{"UPDATE t SET a = 'NaN' WHERE id = 1", CodeInvalidText},
		{"UPDATE t SET a = 1e308 * 10 - 1e308 * 10", CodeNumericRange},
		{"INSERT INTO t (id, a) VALUES (2, 'nan')", CodeInvalidText},
	} {
		_, err := s.Exec(c.q)
		var e *Error
		if !errors.As(err, &e) || e.Code != c.code {
			t.Errorf("%s: err = %v, want %s", c.q, err, c.code)
		}
	}
	err := Restore(NewDatabase("NAN2"), strings.NewReader(
		"CREATE TABLE t (id INTEGER, a DOUBLE);\nINSERT INTO t VALUES\n  (1, 5),\n  (2, 'NaN');\n"))
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeInvalidText {
		t.Errorf("restoring a dump with NaN: err = %v, want %s", err, CodeInvalidText)
	}
	if res := mustExec(t, s, "SELECT id FROM t WHERE a = 5"); len(res.Rows) != 1 {
		t.Errorf("a = 5 matched %d rows, want 1", len(res.Rows))
	}
}

// TestTextIsANumberOnlyWhenFiniteDecimal: 'NaN' against a number equalled
// every INT and DOUBLE, indexed or not, and <> 'NaN' matched nothing;
// overflowing arithmetic and ROUND met NaN and compared it equal to 3 and
// to 7. A text is a number only when it is a finite decimal, so 'NaN' and
// 'Inf' answer 42804 as 'abc' does, and no result is a NaN.
func TestTextIsANumberOnlyWhenFiniteDecimal(t *testing.T) {
	s := NewSession(NewDatabase("DECIMAL"))
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, x DOUBLE)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 5)")
	mustExec(t, s, "INSERT INTO t VALUES (2, 7.5)")
	for _, c := range []struct{ q, code string }{
		{"SELECT id FROM t WHERE id = 'NaN'", CodeDatatypeMismatch},
		{"SELECT id FROM t WHERE x <> 'NaN'", CodeDatatypeMismatch},
		{"SELECT id FROM t WHERE x = 'Inf'", CodeDatatypeMismatch},
		{"SELECT id FROM t WHERE id < '-Infinity'", CodeDatatypeMismatch},
		{"SELECT id FROM t WHERE id = '0x1p0'", CodeDatatypeMismatch},
		{"SELECT id FROM t WHERE 1.0e308 * 10 - 1.0e308 * 10 = 3", CodeNumericRange},
		{"SELECT 1.0e308 + 1.0e308", CodeNumericRange},
		{"SELECT -1.0e308 / 1.0e-308", CodeNumericRange},
	} {
		_, err := s.Exec(c.q)
		var e *Error
		if !errors.As(err, &e) || e.Code != c.code {
			t.Errorf("%s: err = %v, want %s", c.q, err, c.code)
		}
	}
	for q, want := range map[string]int{
		"SELECT id FROM t WHERE ROUND(1.5, 400) = 7":   0,
		"SELECT id FROM t WHERE ROUND(1.5, 400) = 1.5": 2,
		"SELECT id FROM t WHERE ROUND(x, 400) = x":     2,
		"SELECT id FROM t WHERE id = ' 1 '":            1,
		"SELECT id FROM t WHERE x = '7.50'":            1,
		"SELECT id FROM t WHERE x > '+1e0'":            2,
	} {
		if res := mustExec(t, s, q); len(res.Rows) != want {
			t.Errorf("%s: %d rows, want %d", q, len(res.Rows), want)
		}
	}
}

// TestNestedLoopCopiesOnlyKeptPairs: a join no hash can serve evaluates
// its condition on one scratch row and allocates a row only for a pair it
// keeps — 200 x 200 pairs, 100 of them kept, used to be 40 000 rows.
func TestNestedLoopCopiesOnlyKeptPairs(t *testing.T) {
	s := NewSession(NewDatabase("NL"))
	mustExec(t, s, "CREATE TABLE a (x INTEGER)")
	mustExec(t, s, "CREATE TABLE b (y INTEGER)")
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO a VALUES (%d)", i))
		mustExec(t, s, fmt.Sprintf("INSERT INTO b VALUES (%d)", i%2*1000))
	}
	const sql = "SELECT a.x, b.y FROM a JOIN b ON a.x < b.y AND b.y < a.x + 802"
	plan := planText(t, s, "EXPLAIN ANALYZE "+sql)
	wantLine(t, plan, "Nested Loop Join (examined=40000 returned=100 ")
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 300 {
		t.Errorf("theta join of 200 x 200 keeping 100: %.0f allocations, want at most 300", allocs)
	}
}

// TestHashJoinMatchesAsCompareDoes: the typed maps find the pairs Compare
// calls equal — 1 and 1.0, integers beyond 2^53 exactly against integers
// and through float64 against doubles, -0 and 0, TRUE and TRUE — NULL keys
// find nothing, and a key the maps cannot serve stays a nested loop with
// the nested loop's error. No statement has an ORDER BY: the rows come in
// the nested loop's order, each left row with its matches in right order.
func TestHashJoinMatchesAsCompareDoes(t *testing.T) {
	s := NewSession(NewDatabase("HJ"))
	mustExec(t, s, "CREATE TABLE l (id INTEGER, i INTEGER, f DOUBLE, s VARCHAR(10), b BOOLEAN)")
	mustExec(t, s, "CREATE TABLE r (id INTEGER, i INTEGER, f DOUBLE, s VARCHAR(10), b BOOLEAN)")
	for _, q := range []string{
		"INSERT INTO l VALUES (1, 1, 1.0, '1', TRUE)",
		"INSERT INTO l VALUES (2, 9007199254740993, 9007199254740992.0, 'x', FALSE)",
		"INSERT INTO l VALUES (3, NULL, NULL, NULL, NULL)",
		"INSERT INTO l VALUES (4, 0, 0.0, '', TRUE)",
		"INSERT INTO l VALUES (5, 1, 2.5, 'x', FALSE)",
		"INSERT INTO r VALUES (1, 1, 1.0, '1', TRUE)",
		"INSERT INTO r VALUES (2, 9007199254740992, 9007199254740992.0, 'x', FALSE)",
		"INSERT INTO r VALUES (3, NULL, NULL, NULL, NULL)",
		"INSERT INTO r VALUES (4, 0, 0.0 * -1, ' ', NULL)",
		"INSERT INTO r VALUES (5, 9007199254740993, 2.5, 'abc', TRUE)",
		"INSERT INTO r VALUES (6, 1, 1.0, '1', TRUE)",
	} {
		mustExec(t, s, q)
	}
	for _, c := range []struct{ on, method string }{
		{"l.i = r.i", "Hash"},
		{"l.i = r.f", "Hash"},
		{"r.f = l.i", "Hash"},
		{"l.f = r.f", "Hash"},
		{"l.s = r.s", "Hash"},
		{"l.b = r.b", "Hash"},
		{"l.i = r.i AND l.id < r.id", "Hash"},
		{"l.id < r.id AND r.f = l.f", "Hash"},
		{"l.i = r.i OR l.f = r.f", "Nested Loop"},
		{"l.i + 0 = r.i", "Nested Loop"},
		{"l.i = r.b", "Nested Loop"}, // cannot compare INTEGER with BOOLEAN
		{"l.s = r.i", "Nested Loop"}, // 'x' is not a number
	} {
		for _, kind := range []string{"JOIN", "LEFT JOIN"} {
			sql := "SELECT l.id, r.id FROM l " + kind + " r ON " + c.on
			label := c.method + " Join"
			if kind == "LEFT JOIN" {
				label = c.method + " Left Join"
			}
			wantLine(t, planText(t, s, "EXPLAIN "+sql), "-> "+label)
			got, gotErr := s.Exec(sql)
			want, wantErr := naiveExec(NewSession(s.db), sql)
			if failedAlike(t, sql, gotErr, wantErr) {
				continue
			}
			if g, w := resultBytes(got), resultBytes(want); g != w {
				t.Errorf("%s:\n got %s\nnaive %s", sql, g, w)
			}
		}
	}
}

// TestOnConditionHasOneScope: an ON condition sees the relations of its
// own FROM entry joined so far, however the FROM clause is planned. The
// free plan used to resolve it against the whole FROM clause, so the first
// two ran there and failed pinned, and the third failed there and ran
// pinned.
func TestOnConditionHasOneScope(t *testing.T) {
	s := NewSession(NewDatabase("SCOPE"))
	planSeed(t, s)
	for _, c := range []struct{ sql, code string }{
		{"SELECT e.id FROM emp e JOIN dept d ON e.dept = d2.id JOIN dept d2 ON d2.id = d.id", CodeUndefinedColumn},
		{"SELECT e.id FROM emp e JOIN emp e2 ON e2.id = loc JOIN dept d ON d.id = e.dept", CodeUndefinedColumn},
		{"SELECT e.id FROM emp e JOIN dept d ON e.dept = d.id AND dname <> 'dept1', dept d2 WHERE d2.id = d.id AND e.id < 4 ORDER BY e.id", ""},
		{"SELECT e.id FROM emp e JOIN dept d ON e.dept = d.id, dept d2 WHERE d2.id = d.id AND e.id < 4 ORDER BY e.id", ""},
	} {
		got, gotErr := s.Exec(c.sql)
		want, wantErr := naiveExec(NewSession(s.db), c.sql)
		var e *Error
		switch failed := failedAlike(t, c.sql, gotErr, wantErr); {
		case failed || c.code != "":
			if !errors.As(gotErr, &e) || e.Code != c.code {
				t.Errorf("%s: err %v, want SQLSTATE %q", c.sql, gotErr, c.code)
			}
		case resultBytes(got) != resultBytes(want) || len(got.Rows) == 0:
			t.Errorf("%s:\n got %s\nnaive %s", c.sql, resultBytes(got), resultBytes(want))
		}
	}
	// Only the statement whose ON means something else against the whole
	// FROM clause gives up the free plan.
	for sql, free := range map[string]bool{
		"SELECT e.id FROM emp e JOIN dept d ON e.dept = d.id AND dname <> 'dept1', dept d2 WHERE d2.id = d.id":   false,
		"SELECT e.id FROM emp e JOIN dept d ON e.dept = d.id AND d.dname <> 'dept1', dept d2 WHERE d2.id = d.id": true,
	} {
		if plan := planText(t, s, "EXPLAIN "+sql); strings.Contains(plan, "Est:") != free {
			t.Errorf("%s: free plan = %v, want %v:\n%s", sql, !free, free, plan)
		}
	}
}

// TestImpliedEquality: a join equality of two columns of one type, beside a
// literal or parameter bound to one of them, binds the other too — through
// further equalities of one type as well — and the statement returns what
// the naive plan returns. Nothing is derived across types (Compare coerces
// there), from a NULL, from a value of another class than the column's,
// from an expression, or under a LEFT join.
func TestImpliedEquality(t *testing.T) {
	s := NewSession(NewDatabase("IMPLIED"))
	mustExec(t, s, "CREATE TABLE l (id INTEGER, i INTEGER, f DOUBLE, s VARCHAR(10), b BOOLEAN)")
	mustExec(t, s, "CREATE TABLE r (id INTEGER PRIMARY KEY, i INTEGER, f DOUBLE, s VARCHAR(10), b BOOLEAN)")
	for _, q := range []string{
		"INSERT INTO l VALUES (1, 1, 1.0, '1', TRUE), (2, 9007199254740993, 9007199254740992.0, 'x', FALSE)",
		"INSERT INTO l VALUES (3, NULL, NULL, NULL, NULL), (4, 0, 0.0, '', TRUE), (5, 1, 2.5, 'x', FALSE)",
		"INSERT INTO r VALUES (1, 1, 1.0, '1', TRUE), (2, 9007199254740992, 9007199254740992.0, 'x', FALSE)",
		"INSERT INTO r VALUES (3, NULL, NULL, NULL, NULL), (4, 0, 0.0 * -1, ' ', NULL)",
		"INSERT INTO r VALUES (5, 9007199254740993, 2.5, 'abc', TRUE), (6, 1, 1.0, '1', TRUE)",
	} {
		mustExec(t, s, q)
	}
	for _, c := range []struct {
		sql     string
		implied int
	}{
		{"SELECT l.id, r.id FROM l JOIN r ON l.i = r.i WHERE l.i = 1", 1},
		{"SELECT l.id, r.id FROM l, r WHERE l.i = r.i AND r.i = 9007199254740993", 1},
		{"SELECT l.id, r.id FROM l JOIN r ON l.f = r.f WHERE 1.0 = l.f", 1},
		{"SELECT l.id, r.id FROM l JOIN r ON l.s = r.s WHERE r.s = 'x'", 1},
		{"SELECT l.id, r.id FROM l JOIN r ON l.b = r.b WHERE r.b = TRUE", 1},
		{"SELECT l.id, r.id FROM l JOIN r ON l.id = r.id WHERE l.id = 5", 1},
		{"SELECT l.id, r.id, l2.id FROM l, r, l l2 WHERE l.i = r.i AND r.i = l2.i AND l2.i = 1", 2},
		{"SELECT l.id, r.id FROM l JOIN r ON l.i = r.i WHERE l.i = 1 AND r.i = 1", 0},
		{"SELECT l.id, r.id FROM l JOIN r ON l.i = r.f WHERE l.i = 1", 0},
		{"SELECT l.id, r.id FROM l JOIN r ON l.f = r.i WHERE r.i = 9007199254740993", 0},
		{"SELECT l.id, r.id FROM l JOIN r ON l.s = r.i WHERE r.i = 1", 0},
		{"SELECT l.id, r.id FROM l JOIN r ON l.i = r.i WHERE l.i = NULL", 0},
		{"SELECT l.id, r.id FROM l JOIN r ON l.i = r.i WHERE l.i = '1'", 0},
		{"SELECT l.id, r.id FROM l JOIN r ON l.i = r.i WHERE l.i = 1.5", 1},
		{"SELECT l.id, r.id FROM l JOIN r ON l.i = r.i WHERE l.i = 0 + 1", 0},
		{"SELECT l.id, r.id FROM l LEFT JOIN r ON l.i = r.i WHERE l.i = 1", 0},
	} {
		plan := planText(t, s, "EXPLAIN "+c.sql)
		n := 0
		for _, line := range strings.Split(plan, "\n") {
			if strings.Contains(line, "Filter: ") {
				n += strings.Count(line, "(implied)")
			}
		}
		if n != c.implied {
			t.Errorf("%s: %d conjuncts implied, want %d:\n%s", c.sql, n, c.implied, plan)
		}
		got, gotErr := s.Exec(c.sql)
		want, wantErr := naiveExec(NewSession(s.db), c.sql)
		if failedAlike(t, c.sql, gotErr, wantErr) {
			continue
		}
		if g, w := sortedRows(got), sortedRows(want); g != w {
			t.Errorf("%s:\n got %s\nnaive %s", c.sql, g, w)
		}
	}
	// Bound by a parameter, the key side reads one row through its index.
	const sql = "SELECT l.id, r.id FROM l JOIN r ON l.id = r.id WHERE l.id = ?"
	res, err := s.Exec("EXPLAIN ANALYZE "+sql, NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	wantLine(t, planResultText(res), "Index Scan on r using r_pkey (examined=1 returned=1 ")
	wantLine(t, planResultText(res), "Index Cond: (r.id = ?) (implied)")
}
