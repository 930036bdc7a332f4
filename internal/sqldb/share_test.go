package sqldb

import (
	"fmt"
	"testing"
)

// shareDB is a three-column table of five rows, the second with NULLs.
func shareDB(t *testing.T) *Session {
	t.Helper()
	s := NewSession(NewDatabase("SHARE"))
	if _, err := s.ExecScript(`
CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10), c INTEGER);
INSERT INTO t VALUES (1, 'one', 10), (2, NULL, NULL), (3, 'three', 30), (4, 'four', 40), (5, 'five', 50)`); err != nil {
		t.Fatal(err)
	}
	return s
}

// storedCell reports whether p is a cell of a row version table t holds.
func storedCell(t *Table, p *Value) bool {
	for _, r := range t.rows {
		for v := r.head; v != nil; v = v.prev {
			for i := range v.vals {
				if &v.vals[i] == p {
					return true
				}
			}
		}
	}
	return false
}

// TestProjectionSharesOrOwnsRows pins which SELECTs hand out the rows the
// scan found and which evaluate their own cells: a run of adjacent columns
// in FROM order shares, and nothing else does.
func TestProjectionSharesOrOwnsRows(t *testing.T) {
	s := shareDB(t)
	tbl := s.db.tables["t"]
	for _, c := range []struct {
		sql    string
		shares bool
	}{
		{"SELECT * FROM t", true},
		{"SELECT t.* FROM t", true},
		{"SELECT a, b FROM t", true},
		{"SELECT b, c FROM t ORDER BY b DESC", true},
		{"SELECT c FROM t WHERE a > 1 ORDER BY a", true},
		{"SELECT x.b AS bee, x.c FROM t x ORDER BY 1", true},
		{"SELECT a, c FROM t", false},     // not adjacent
		{"SELECT b, a FROM t", false},     // not in FROM order
		{"SELECT a, a FROM t", false},     //
		{"SELECT a, c + 0 FROM t", false}, // an expression
		{"SELECT a, 1 FROM t", false},     // a constant
		{"SELECT a, b FROM t GROUP BY a, b", false},
		{"SELECT MAX(a) FROM t", false},
	} {
		res := mustExec(t, s, c.sql)
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", c.sql)
		}
		for _, row := range res.Rows {
			if len(row) != len(res.Columns) || cap(row) != len(row) {
				t.Errorf("%s: a row of len %d, cap %d for %d columns", c.sql, len(row), cap(row), len(res.Columns))
			}
			if got := storedCell(tbl, &row[0]); got != c.shares {
				t.Errorf("%s: rows share the table's storage: %v, want %v", c.sql, got, c.shares)
				break
			}
		}
	}
}

func cloneRows(rows [][]Value) [][]Value {
	out := make([][]Value, len(rows))
	for i, r := range rows {
		out[i] = append([]Value(nil), r...)
	}
	return out
}

func sameRows(a, b [][]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestResultRowsSurviveWrites is the proof that a Result may share rows
// with the table: Results of every sharing shape are taken, then the
// table is written to in every way the engine can — while another
// goroutine keeps reading the old Results, for the race detector — and
// each Result must stay cell for cell what it was, and a fresh SELECT see
// only what the table holds now.
func TestResultRowsSurviveWrites(t *testing.T) {
	s := shareDB(t)
	var (
		shapes []string
		taken  []*Result
		want   [][][]Value
	)
	take := func(sqls ...string) {
		for _, sql := range sqls {
			res := mustExec(t, s, sql)
			shapes, taken, want = append(shapes, sql), append(taken, res), append(want, cloneRows(res.Rows))
		}
	}
	check := func(after string) {
		t.Helper()
		for i, sql := range shapes {
			if !sameRows(taken[i].Rows, want[i]) {
				t.Fatalf("after %s, the earlier result of %s changed:\n got %v\nwant %v", after, sql, taken[i].Rows, want[i])
			}
		}
	}
	// read starts a goroutine that reads what has been taken so far until
	// the returned function is called.
	read := func() (stop func()) {
		taken, want, shapes := taken, want, shapes
		quit, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-quit:
					return
				default:
				}
				for i := range taken {
					if !sameRows(taken[i].Rows, want[i]) {
						t.Errorf("a concurrent reader saw the result of %s change", shapes[i])
						return
					}
				}
			}
		}()
		return func() { close(quit); <-done }
	}

	take("SELECT * FROM t",
		"SELECT t.* FROM t ORDER BY b",
		"SELECT a, b FROM t",
		"SELECT b, c FROM t ORDER BY c DESC",
		"SELECT c FROM t ORDER BY a")
	stop := read()
	for _, step := range []struct {
		sql  string // one statement, or several separated by ;
		now  string // what SELECT * FROM t ORDER BY a must return after it
		undo bool   // run in a transaction that is rolled back
		take []string
	}{
		// Every stored row is still the one the results above share.
		{sql: "UPDATE t SET c = 0; DELETE FROM t WHERE a = 1; INSERT INTO t VALUES (7, 'seven', 70)", undo: true,
			now: "[[1 one 10] [2  ] [3 three 30] [4 four 40] [5 five 50]]"},
		{sql: "UPDATE t SET b = CASE a WHEN 1 THEN 'xone' WHEN 3 THEN 'xthree' WHEN 5 THEN 'xfive' END, c = c + 1 WHERE a <> 4",
			now: "[[1 xone 11] [2  ] [3 xthree 31] [4 four 40] [5 xfive 51]]"},
		{sql: "DELETE FROM t WHERE a = 3",
			now:  "[[1 xone 11] [2  ] [4 four 40] [5 xfive 51]]",
			take: []string{"SELECT * FROM t", "SELECT c FROM t ORDER BY c DESC", "SELECT a FROM t"}},
		{sql: "UPDATE t SET b = 'upd' WHERE a = 5",
			now: "[[1 xone 11] [2  ] [4 four 40] [5 upd 51]]"},
		{sql: "INSERT INTO t VALUES (6, 'six', 60)",
			now: "[[1 xone 11] [2  ] [4 four 40] [5 upd 51] [6 six 60]]"},
	} {
		if step.undo {
			if err := s.BeginTxn(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.ExecScript(step.sql); err != nil {
			t.Fatalf("%s: %v", step.sql, err)
		}
		check(step.sql)
		if step.undo {
			if err := s.Rollback(); err != nil {
				t.Fatal(err)
			}
			check("the rollback of " + step.sql)
		}
		s.db.Vacuum()
		check("the vacuum after " + step.sql)
		if got := fmt.Sprint(mustExec(t, s, "SELECT * FROM t ORDER BY a").Rows); got != step.now {
			t.Fatalf("after %s the table is\n     %s\nwant %s", step.sql, got, step.now)
		}
		if step.take != nil {
			stop()
			take(step.take...)
			stop = read()
		}
	}
	stop()
}
