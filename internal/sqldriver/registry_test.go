package sqldriver

import (
	"errors"
	"slices"
	"testing"

	"db2www/internal/sqldb"
)

// The path every SQL client of the engine takes — the gateway's provider,
// the baselines, sqlsh — is a name looked up here and a sqldb.Session on
// the database it names. These tests run the engine's client-visible
// behaviour down that path.

// openTestSession registers a database with an emp table under name and
// returns a session on it, reached through Lookup.
func openTestSession(t *testing.T, name string) *sqldb.Session {
	t.Helper()
	Register(name, sqldb.NewDatabase(name))
	t.Cleanup(func() { Unregister(name) })
	s := session(t, name)
	if _, err := s.ExecScript(`
CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(40), salary DOUBLE);
INSERT INTO emp VALUES (1, 'alice', 90000), (2, 'bob', 80000), (3, 'carol', 120000)`); err != nil {
		t.Fatal(err)
	}
	return s
}

// session opens another session on the database registered as name.
func session(t *testing.T, name string) *sqldb.Session {
	t.Helper()
	db, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	s := sqldb.NewSession(db)
	t.Cleanup(func() { s.Close() })
	return s
}

func exec(t *testing.T, s *sqldb.Session, sql string, params ...sqldb.Value) *sqldb.Result {
	t.Helper()
	res, err := s.Exec(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func TestQueryRow(t *testing.T) {
	s := openTestSession(t, "T1")
	res := exec(t, s, "SELECT name, salary FROM emp WHERE id = ?", sqldb.NewInt(2))
	if len(res.Rows) != 1 || res.Rows[0][0].S != "bob" || res.Rows[0][1].Float() != 80000 {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestQueryIteration(t *testing.T) {
	s := openTestSession(t, "T2")
	res := exec(t, s, "SELECT id, name FROM emp ORDER BY id")
	if !slices.Equal(res.Columns, []string{"id", "name"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
	var ids []int64
	for _, row := range res.Rows {
		ids = append(ids, row[0].I)
	}
	if !slices.Equal(ids, []int64{1, 2, 3}) {
		t.Fatalf("ids = %v", ids)
	}
}

func TestExecInsert(t *testing.T) {
	s := openTestSession(t, "T3")
	res := exec(t, s, "INSERT INTO emp VALUES (?, ?, ?)", sqldb.NewInt(4), sqldb.NewString("dave"), sqldb.NewFloat(70000))
	if res.RowsAffected != 1 {
		t.Fatalf("rows affected = %d", res.RowsAffected)
	}
	if n := exec(t, s, "SELECT COUNT(*) FROM emp").Rows[0][0].I; n != 4 {
		t.Fatalf("count = %d", n)
	}
}

func TestNullScan(t *testing.T) {
	s := openTestSession(t, "T4")
	exec(t, s, "INSERT INTO emp (id) VALUES (9)")
	if name := exec(t, s, "SELECT name FROM emp WHERE id = 9").Rows[0][0]; !name.IsNull() {
		t.Fatalf("name = %v, want NULL", name)
	}
}

// TestPreparedStatementReuse: one text with a ? runs again with each
// argument, and each run answers for its own.
func TestPreparedStatementReuse(t *testing.T) {
	s := openTestSession(t, "T5")
	for id, want := range map[int64]string{1: "alice", 2: "bob", 3: "carol"} {
		if got := exec(t, s, "SELECT name FROM emp WHERE id = ?", sqldb.NewInt(id)).Rows[0][0].S; got != want {
			t.Errorf("id %d: got %q want %q", id, got, want)
		}
	}
}

// TestWrongParamCount: a statement given fewer arguments than it has ?
// is refused with SQLSTATE 07001 before any row is read — whether or not
// a row would reach the ? without a value — and one given more runs with
// the extra ones ignored.
func TestWrongParamCount(t *testing.T) {
	s := openTestSession(t, "T6")
	for _, c := range []struct {
		sql  string
		args []sqldb.Value
	}{
		{"SELECT name FROM emp WHERE id = ? AND salary > ?", []sqldb.Value{sqldb.NewInt(1)}},
		{"SELECT name FROM emp WHERE id = ? AND salary > ?", []sqldb.Value{sqldb.NewInt(999)}},
		{"DELETE FROM emp WHERE id = 999 AND salary > ?", nil},
	} {
		_, err := s.Exec(c.sql, c.args...)
		var se *sqldb.Error
		if !errors.As(err, &se) || se.Code != sqldb.CodeParamCount {
			t.Errorf("%s with %v: %v, want SQLSTATE %s", c.sql, c.args, err, sqldb.CodeParamCount)
		}
	}
	res := exec(t, s, "SELECT name FROM emp WHERE id = ?", sqldb.NewInt(2), sqldb.NewInt(3))
	if len(res.Rows) != 1 || res.Rows[0][0].S != "bob" {
		t.Fatalf("an extra argument: %v", res.Rows)
	}
}

// TestDriverTransaction: a session's rolled-back write is seen by no
// other session.
func TestDriverTransaction(t *testing.T) {
	s := openTestSession(t, "T7")
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	exec(t, s, "UPDATE emp SET salary = 0 WHERE id = 1")
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if salary := exec(t, session(t, "T7"), "SELECT salary FROM emp WHERE id = 1").Rows[0][0].Float(); salary != 90000 {
		t.Fatalf("salary = %v after rollback, want 90000", salary)
	}
}

// TestUnregisteredDatabase: names are found case-insensitively, and not
// at all once unregistered.
func TestUnregisteredDatabase(t *testing.T) {
	if _, ok := Lookup("NOSUCH"); ok {
		t.Fatal("an unregistered name resolved")
	}
	db := sqldb.NewDatabase("Mixed")
	Register("Mixed", db)
	if got, ok := Lookup("MIXED"); !ok || got != db {
		t.Fatal("lookup is not case-insensitive")
	}
	Unregister("mixed")
	if _, ok := Lookup("Mixed"); ok {
		t.Fatal("an unregistered name still resolves")
	}
}

// refused requires the engine's 0A000 for sql.
func refused(t *testing.T, s *sqldb.Session, sql string) {
	t.Helper()
	_, err := s.Exec(sql)
	var se *sqldb.Error
	if !errors.As(err, &se) || se.Code != sqldb.CodeFeature {
		t.Fatalf("%s: err = %v, want SQLSTATE %s", sql, err, sqldb.CodeFeature)
	}
}

// TestSubqueryThroughDriver: a subquery is refused, and the two statements
// that replace it answer what it did.
func TestSubqueryThroughDriver(t *testing.T) {
	s := openTestSession(t, "T8")
	refused(t, s, "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)")
	top := exec(t, s, "SELECT MAX(salary) FROM emp").Rows[0][0]
	if name := exec(t, s, "SELECT name FROM emp WHERE salary = ?", top).Rows[0][0].S; name != "carol" {
		t.Fatalf("name = %q", name)
	}
}

// TestUnionThroughDriver: a UNION is refused, and an IN list reads the
// rows of its two arms.
func TestUnionThroughDriver(t *testing.T) {
	s := openTestSession(t, "T9")
	refused(t, s, "SELECT id FROM emp WHERE id = 1 UNION SELECT id FROM emp WHERE id = 3 ORDER BY 1")
	res := exec(t, s, "SELECT id FROM emp WHERE id IN (1, 3) ORDER BY 1")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 || res.Rows[1][0].I != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestAlterThroughDriver: ALTER TABLE is refused and leaves the table as
// it was; a new column is a new table.
func TestAlterThroughDriver(t *testing.T) {
	s := openTestSession(t, "T10")
	refused(t, s, "ALTER TABLE emp ADD bonus DOUBLE DEFAULT 500")
	if _, err := s.Exec("SELECT bonus FROM emp"); err == nil {
		t.Fatal("the refused ALTER TABLE added a column")
	}
	exec(t, s, "CREATE TABLE bonus (id INTEGER PRIMARY KEY, amount DOUBLE DEFAULT 500)")
	exec(t, s, "INSERT INTO bonus (id) VALUES (1)")
	if bonus := exec(t, s, "SELECT b.amount FROM emp e JOIN bonus b ON b.id = e.id WHERE e.id = 1").Rows[0][0].Float(); bonus != 500 {
		t.Fatalf("bonus = %v", bonus)
	}
}

// TestCountParams: a statement takes as many arguments as it has ?
// tokens — none in a string, a quoted identifier or a comment. Each runs
// with that many and fails one short.
func TestCountParams(t *testing.T) {
	s := openTestSession(t, "T11")
	exec(t, s, `CREATE TABLE t (a INTEGER, b INTEGER, "a?b" INTEGER)`)
	exec(t, s, `INSERT INTO t VALUES (1, 1, 1)`)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM t WHERE a = ? AND b = ?", 2},
		{"SELECT '?' FROM t WHERE a = ?", 1},
		{`SELECT "a?b" FROM t`, 0},
		{"SELECT 1 -- ? comment\n FROM t WHERE a = ?", 1},
		{"SELECT 1 /* ? */ FROM t WHERE a = ?", 1},
		{"SELECT 'it''s ?' FROM t", 0},
	}
	for _, c := range cases {
		args := make([]sqldb.Value, c.want)
		for i := range args {
			args[i] = sqldb.NewInt(1)
		}
		if res, err := s.Exec(c.sql, args...); err != nil || len(res.Rows) != 1 {
			t.Errorf("%q with %d arguments: %v", c.sql, c.want, err)
		}
		if c.want > 0 {
			if _, err := s.Exec(c.sql, args[1:]...); err == nil {
				t.Errorf("%q ran with %d arguments", c.sql, c.want-1)
			}
		}
	}
}

// TestConflictSurfacesAsRetryable: a first-committer-wins loser's error
// reaches the client recognisable as a serialization failure (40001).
func TestConflictSurfacesAsRetryable(t *testing.T) {
	s1 := openTestSession(t, "TCONFLICT")
	s2 := session(t, "TCONFLICT")
	if err := s1.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if err := s2.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	exec(t, s1, "UPDATE emp SET salary = 1 WHERE id = 1")
	_, err := s2.Exec("UPDATE emp SET salary = 2 WHERE id = 1")
	if err == nil {
		t.Fatalf("overlapping write unexpectedly succeeded")
	}
	if !sqldb.IsSerializationFailure(err) {
		t.Fatalf("IsSerializationFailure(%v) = false, want true", err)
	}
	if sqldb.IsSerializationFailure(nil) {
		t.Fatalf("IsSerializationFailure(nil) = true")
	}
	if err := s2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if salary := exec(t, s2, "SELECT salary FROM emp WHERE id = 1").Rows[0][0].Float(); salary != 1 {
		t.Fatalf("salary = %v, want winner's 1", salary)
	}
}

// TestRetryLoopThroughDriver: the application pattern — replay the
// transaction on a serialization failure — converges under contention,
// each worker on a session of its own.
func TestRetryLoopThroughDriver(t *testing.T) {
	s := openTestSession(t, "TRETRY")
	const workers, increments = 4, 10
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w := session(t, "TRETRY")
		go func() {
			for j := 0; j < increments; j++ {
				for {
					if err := w.BeginTxn(); err != nil {
						errs <- err
						return
					}
					_, err := w.Exec("UPDATE emp SET salary = salary + 1 WHERE id = 1")
					if err == nil {
						err = w.Commit()
					} else {
						w.Rollback()
					}
					if err == nil {
						break
					}
					if !sqldb.IsSerializationFailure(err) {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if salary := exec(t, s, "SELECT salary FROM emp WHERE id = 1").Rows[0][0].Float(); salary != 90000+workers*increments {
		t.Fatalf("salary = %v, want %d", salary, 90000+workers*increments)
	}
}

// TestExecuteBlockFetch: a session returns whole the result of a
// statement inside its open transaction, and an SQL error keeps its
// SQLSTATE and costs the session nothing.
func TestExecuteBlockFetch(t *testing.T) {
	s := openTestSession(t, "TRAW")
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	exec(t, s, "UPDATE emp SET name = 'zed' WHERE id = 1")
	res := exec(t, s, "SELECT id, name, salary FROM emp ORDER BY id")
	if len(res.Rows) != 3 || !slices.Equal(res.Columns, []string{"id", "name", "salary"}) ||
		res.Rows[0][1].S != "zed" || res.Rows[2][2].Float() != 120000 {
		t.Errorf("block fetch inside the transaction: %+v", res)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if res := exec(t, s, "SELECT name FROM emp WHERE id = 1"); res.Rows[0][0].S != "alice" {
		t.Errorf("after rollback: %+v", res)
	}
	if res := exec(t, s, "DELETE FROM emp WHERE id > 1"); res.RowsAffected != 2 || len(res.Columns) != 0 {
		t.Errorf("DELETE: %+v", res)
	}
	var sqlErr *sqldb.Error
	if _, err := s.Exec("SELECT * FROM missing"); !errors.As(err, &sqlErr) || sqlErr.Code != sqldb.CodeUndefinedTable {
		t.Errorf("SQLSTATE: %v", err)
	}
	if res := exec(t, s, "SELECT COUNT(*) FROM emp"); res.Rows[0][0].I != 1 {
		t.Errorf("after an SQL error: %+v", res)
	}
}
