package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"db2www/internal/obs"
	"db2www/internal/sqldb"
)

func openTestDB(t *testing.T, name string) *sql.DB {
	t.Helper()
	engine := sqldb.NewDatabase(name)
	Register(name, engine)
	t.Cleanup(func() { Unregister(name) })
	db, err := Open(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := sqldb.NewSession(engine)
	if _, err := s.ExecScript(`
CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(40), salary DOUBLE);
INSERT INTO emp VALUES (1, 'alice', 90000), (2, 'bob', 80000), (3, 'carol', 120000)`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQueryRow(t *testing.T) {
	db := openTestDB(t, "T1")
	var name string
	var salary float64
	err := db.QueryRow("SELECT name, salary FROM emp WHERE id = ?", 2).Scan(&name, &salary)
	if err != nil {
		t.Fatal(err)
	}
	if name != "bob" || salary != 80000 {
		t.Fatalf("got %q %v", name, salary)
	}
}

func TestQueryIteration(t *testing.T) {
	db := openTestDB(t, "T2")
	rows, err := db.Query("SELECT id, name FROM emp ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil || len(cols) != 2 {
		t.Fatalf("columns = %v (%v)", cols, err)
	}
	var ids []int64
	for rows.Next() {
		var id int64
		var name string
		if err := rows.Scan(&id, &name); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestExecInsert(t *testing.T) {
	db := openTestDB(t, "T3")
	res, err := db.Exec("INSERT INTO emp VALUES (?, ?, ?)", 4, "dave", 70000.0)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 1 {
		t.Fatalf("rows affected = %d", n)
	}
	var count int
	if err := db.QueryRow("SELECT COUNT(*) FROM emp").Scan(&count); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("count = %d", count)
	}
}

func TestNullScan(t *testing.T) {
	db := openTestDB(t, "T4")
	if _, err := db.Exec("INSERT INTO emp (id) VALUES (9)"); err != nil {
		t.Fatal(err)
	}
	var name sql.NullString
	if err := db.QueryRow("SELECT name FROM emp WHERE id = 9").Scan(&name); err != nil {
		t.Fatal(err)
	}
	if name.Valid {
		t.Fatalf("name = %v, want NULL", name)
	}
}

func TestPreparedStatementReuse(t *testing.T) {
	db := openTestDB(t, "T5")
	st, err := db.Prepare("SELECT name FROM emp WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for id, want := range map[int]string{1: "alice", 2: "bob", 3: "carol"} {
		var got string
		if err := st.QueryRow(id).Scan(&got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("id %d: got %q want %q", id, got, want)
		}
	}
}

func TestWrongParamCount(t *testing.T) {
	db := openTestDB(t, "T6")
	st, err := db.Prepare("SELECT name FROM emp WHERE id = ? AND salary > ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Query(1); err == nil {
		t.Fatal("expected error for missing parameter")
	}
}

func TestDriverTransaction(t *testing.T) {
	db := openTestDB(t, "T7")
	// A transaction holds the engine write lock, so limit this pool to a
	// single connection to mirror a CGI process's single session.
	db.SetMaxOpenConns(1)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE emp SET salary = 0 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var salary float64
	if err := db.QueryRow("SELECT salary FROM emp WHERE id = 1").Scan(&salary); err != nil {
		t.Fatal(err)
	}
	if salary != 90000 {
		t.Fatalf("salary = %v after rollback, want 90000", salary)
	}
}

func TestUnregisteredDatabase(t *testing.T) {
	if _, err := Open("NOSUCH"); err == nil {
		t.Fatal("expected error for unregistered database")
	}
	db, err := sql.Open(DriverName, "NOSUCH")
	if err != nil {
		t.Fatal(err) // sql.Open defers connection
	}
	defer db.Close()
	if err := db.Ping(); err == nil {
		t.Fatal("expected ping failure for unregistered database")
	}
}

// refusedThroughDriver requires the engine's 0A000 for sql to reach the
// database/sql caller as the engine's own error.
func refusedThroughDriver(t *testing.T, db *sql.DB, sql string) {
	t.Helper()
	_, err := db.Exec(sql)
	var se *sqldb.Error
	if !errors.As(err, &se) || se.Code != sqldb.CodeFeature {
		t.Fatalf("%s: err = %v, want SQLSTATE %s", sql, err, sqldb.CodeFeature)
	}
}

// TestSubqueryThroughDriver: a subquery is refused, and the two statements
// that replace it answer what it did.
func TestSubqueryThroughDriver(t *testing.T) {
	db := openTestDB(t, "T8")
	refusedThroughDriver(t, db, "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)")
	var top float64
	if err := db.QueryRow("SELECT MAX(salary) FROM emp").Scan(&top); err != nil {
		t.Fatal(err)
	}
	var name string
	if err := db.QueryRow("SELECT name FROM emp WHERE salary = ?", top).Scan(&name); err != nil {
		t.Fatal(err)
	}
	if name != "carol" {
		t.Fatalf("name = %q", name)
	}
}

// TestUnionThroughDriver: a UNION is refused, and an IN list reads the
// rows of its two arms.
func TestUnionThroughDriver(t *testing.T) {
	db := openTestDB(t, "T9")
	refusedThroughDriver(t, db, "SELECT id FROM emp WHERE id = 1 UNION SELECT id FROM emp WHERE id = 3 ORDER BY 1")
	rows, err := db.Query("SELECT id FROM emp WHERE id IN (1, 3) ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var ids []int
	for rows.Next() {
		var id int
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("ids = %v", ids)
	}
}

// TestAlterThroughDriver: ALTER TABLE is refused and leaves the table as
// it was; a new column is a new table, created through the driver.
func TestAlterThroughDriver(t *testing.T) {
	db := openTestDB(t, "T10")
	refusedThroughDriver(t, db, "ALTER TABLE emp ADD bonus DOUBLE DEFAULT 500")
	if _, err := db.Exec("SELECT bonus FROM emp"); err == nil {
		t.Fatal("the refused ALTER TABLE added a column")
	}
	if _, err := db.Exec("CREATE TABLE bonus (id INTEGER PRIMARY KEY, amount DOUBLE DEFAULT 500)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO bonus (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	var bonus float64
	if err := db.QueryRow("SELECT b.amount FROM emp e JOIN bonus b ON b.id = e.id WHERE e.id = 1").Scan(&bonus); err != nil {
		t.Fatal(err)
	}
	if bonus != 500 {
		t.Fatalf("bonus = %v", bonus)
	}
}

// TestCountParams: a prepared statement takes as many arguments as the
// statement the engine parsed has ? tokens — none in a string, a quoted
// identifier or a comment.
func TestCountParams(t *testing.T) {
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM t WHERE a = ? AND b = ?", 2},
		{"SELECT '?' FROM t WHERE a = ?", 1},
		{`SELECT "a?b" FROM t`, 0},
		{"SELECT 1 -- ? comment\n WHERE a = ?", 1},
		{"SELECT 1 /* ? */ WHERE a = ?", 1},
		{"SELECT 'it''s ?' FROM t", 0},
	}
	for _, c := range cases {
		st, err := (&conn{}).Prepare(c.sql)
		if err != nil {
			t.Errorf("Prepare(%q): %v", c.sql, err)
		} else if got := st.NumInput(); got != c.want {
			t.Errorf("Prepare(%q).NumInput() = %d, want %d", c.sql, got, c.want)
		}
	}
}

// TestConflictSurfacesAsRetryable: a first-committer-wins loser's error
// crosses the database/sql boundary still recognisable as retryable.
func TestConflictSurfacesAsRetryable(t *testing.T) {
	db := openTestDB(t, "TCONFLICT")

	tx1, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec("UPDATE emp SET salary = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	_, err = tx2.Exec("UPDATE emp SET salary = 2 WHERE id = 1")
	if err == nil {
		t.Fatalf("overlapping write through driver unexpectedly succeeded")
	}
	if !IsRetryable(err) {
		t.Fatalf("IsRetryable(%v) = false, want true", err)
	}
	if IsRetryable(nil) {
		t.Fatalf("IsRetryable(nil) = true")
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	var salary float64
	if err := db.QueryRow("SELECT salary FROM emp WHERE id = 1").Scan(&salary); err != nil {
		t.Fatal(err)
	}
	if salary != 1 {
		t.Fatalf("salary = %v, want winner's 1", salary)
	}
}

// TestRetryLoopThroughDriver: the documented application pattern — replay
// the transaction while IsRetryable — converges under contention.
func TestRetryLoopThroughDriver(t *testing.T) {
	db := openTestDB(t, "TRETRY")
	db.SetMaxOpenConns(8)
	const workers, increments = 4, 10
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() {
			for j := 0; j < increments; j++ {
				for {
					tx, err := db.Begin()
					if err != nil {
						errs <- err
						return
					}
					_, err = tx.Exec("UPDATE emp SET salary = salary + 1 WHERE id = 1")
					if err == nil {
						err = tx.Commit()
					} else {
						tx.Rollback()
					}
					if err == nil {
						break
					}
					if !IsRetryable(err) {
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
	var salary float64
	if err := db.QueryRow("SELECT salary FROM emp WHERE id = 1").Scan(&salary); err != nil {
		t.Fatal(err)
	}
	if salary != 90000+workers*increments {
		t.Fatalf("salary = %v, want %d", salary, 90000+workers*increments)
	}
}

// rowStrings returns a query's rows, each joined to a line.
func rowStrings(t *testing.T, rows *sql.Rows, err error) []string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, _ := rows.Columns()
	var out []string
	for rows.Next() {
		cells := make([]sql.NullString, len(cols))
		dest := make([]any, len(cols))
		for i := range cells {
			dest[i] = &cells[i]
		}
		if err := rows.Scan(dest...); err != nil {
			t.Fatal(err)
		}
		line := ""
		for _, c := range cells {
			line += c.String + "|"
		}
		out = append(out, line)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPreparedJoinReplansPerExecution: a prepared statement is one parsed
// tree executed many times, so nothing the planner decides may stay on
// it. The same stmt runs a two-table join, then again with another
// parameter after the smaller table has outgrown the other: both times
// its rows are those of the join written so that the planner must take
// it as declared (a LEFT JOIN keeps declaration order, pushes nothing
// down and scans sequentially — the naive plan, reached through SQL),
// and EXPLAIN shows the join order following the data.
func TestPreparedJoinReplansPerExecution(t *testing.T) {
	db := openTestDB(t, "REPLAN")
	db.SetMaxOpenConns(1) // one connection, so one driver stmt serves both runs
	for _, q := range []string{
		"CREATE TABLE small (k INTEGER PRIMARY KEY, tag VARCHAR(10))",
		"CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER, v VARCHAR(10))",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3; k++ {
		if _, err := db.Exec("INSERT INTO small VALUES (?, ?)", k, fmt.Sprintf("t%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	for id := 1; id <= 40; id++ {
		if _, err := db.Exec("INSERT INTO big VALUES (?, ?, ?)", id, id%5, fmt.Sprintf("v%d", id)); err != nil {
			t.Fatal(err)
		}
	}
	const join = "SELECT b.id, s.tag FROM big b JOIN small s ON s.k = b.k WHERE b.id > ? ORDER BY b.id"
	const declared = "SELECT b.id, s.tag FROM big b LEFT JOIN small s ON s.k = b.k WHERE b.id > ? AND s.k IS NOT NULL ORDER BY b.id"
	st, err := db.Prepare(join)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	lines := func(rows *sql.Rows, err error) []string {
		t.Helper()
		return rowStrings(t, rows, err)
	}
	firstScan := func(arg int) string {
		plan := strings.Join(lines(db.Query("EXPLAIN "+join, arg)), "\n")
		iSmall, iBig := strings.Index(plan, "Scan on small"), strings.Index(plan, "Scan on big")
		if iSmall < 0 || iBig < 0 {
			t.Fatalf("plan shows no scans:\n%s", plan)
		}
		if iSmall < iBig {
			return "small"
		}
		return "big"
	}

	got, want := lines(st.Query(10)), lines(db.Query(declared, 10))
	if len(got) != 18 || !slices.Equal(got, want) {
		t.Fatalf("first run: %d rows %v, declared-order join %v", len(got), got, want)
	}
	if first := firstScan(10); first != "small" {
		t.Fatalf("3 rows against ~13: want the join to start from small, starts from %s", first)
	}

	for k := 100; k < 300; k++ {
		if _, err := db.Exec("INSERT INTO small VALUES (?, 'late')", k); err != nil {
			t.Fatal(err)
		}
	}
	got, want = lines(st.Query(35)), lines(db.Query(declared, 35))
	if len(got) != 3 || !slices.Equal(got, want) {
		t.Fatalf("second run: %d rows %v, declared-order join %v", len(got), got, want)
	}
	if first := firstScan(35); first != "big" {
		t.Fatalf("203 rows against ~13: want the join to start from big, starts from %s", first)
	}
}

// TestPreparedStatementCarriesContext: an obs.SQLExec entry on ctx is
// filled by a prepared statement exactly as by the one-shot path beside
// it, and a cancelled ctx is refused by both — stmt used to implement only
// Exec/Query, so the entry and the request trace stopped at database/sql.
func TestPreparedStatementCarriesContext(t *testing.T) {
	db := openTestDB(t, "TCTX")
	drain := func(rows *sql.Rows, err error) error {
		if err != nil {
			return err
		}
		defer rows.Close()
		for rows.Next() {
		}
		return rows.Err()
	}
	const q = "SELECT name FROM emp WHERE id = ?"
	oneShot, prepared := &obs.SQLExec{}, &obs.SQLExec{}
	if err := drain(db.QueryContext(obs.WithSQLExec(context.Background(), oneShot), q, 2)); err != nil {
		t.Fatal(err)
	}
	st, err := db.PrepareContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := drain(st.QueryContext(obs.WithSQLExec(context.Background(), prepared), 2)); err != nil {
		t.Fatal(err)
	}
	if oneShot.Kind != "select" || prepared.Kind != oneShot.Kind {
		t.Errorf("statement kind: one-shot %q, prepared %q, want select from both", oneShot.Kind, prepared.Kind)
	}
	write := &obs.SQLExec{}
	ins, err := db.PrepareContext(context.Background(), "INSERT INTO emp VALUES (?, 'dave', 1)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	if _, err := ins.ExecContext(obs.WithSQLExec(context.Background(), write), 9); err != nil {
		t.Fatal(err)
	}
	if write.Kind != "write" {
		t.Errorf("prepared INSERT reported kind %q, want write", write.Kind)
	}
	if _, err := st.QueryContext(context.Background(), sql.Named("id", 2)); err == nil ||
		!strings.Contains(err.Error(), "named parameters") {
		t.Errorf("named parameter on a prepared statement: %v", err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := drain(db.QueryContext(cancelled, q, 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("one-shot query under a cancelled context: %v", err)
	}
	if err := drain(st.QueryContext(cancelled, 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("prepared query under a cancelled context: %v", err)
	}
	// The driver's own door, which database/sql's checks stand in front of.
	dc, err := (&Driver{}).Open("TCTX")
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	ds, err := dc.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	args := []driver.NamedValue{{Ordinal: 1, Value: int64(2)}}
	if _, err := ds.(driver.StmtQueryContext).QueryContext(cancelled, args); !errors.Is(err, context.Canceled) {
		t.Errorf("stmt.QueryContext under a cancelled context: %v", err)
	}
	if _, err := ds.(driver.StmtExecContext).ExecContext(cancelled, args); !errors.Is(err, context.Canceled) {
		t.Errorf("stmt.ExecContext under a cancelled context: %v", err)
	}
	if rows, err := ds.Query([]driver.Value{int64(2)}); err != nil || len(rows.Columns()) != 1 {
		t.Errorf("driver.Stmt.Query: %v", err)
	}
}

// TestExecuteBlockFetch: the driver connection's exec — the shared body of
// ExecContext and QueryContext, reached here through sql.Conn.Raw — returns
// whole the result the cursor would iterate, inside the connection's open
// transaction.
func TestExecuteBlockFetch(t *testing.T) {
	db := openTestDB(t, "TRAW")
	ctx := context.Background()
	sc, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	fetch := func(ctx context.Context, q string) (res *sqldb.Result, err error) {
		err = sc.Raw(func(dc any) error {
			res, err = dc.(*conn).exec(ctx, q, nil)
			return err
		})
		return res, err
	}
	tx, err := sc.BeginTx(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecContext(ctx, "UPDATE emp SET name = 'zed' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	res, err := fetch(ctx, "SELECT id, name, salary FROM emp ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || !slices.Equal(res.Columns, []string{"id", "name", "salary"}) ||
		res.Rows[0][1].S != "zed" || res.Rows[2][2].F != 120000 {
		t.Errorf("block fetch inside the transaction: %+v", res)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if res, err = fetch(ctx, "SELECT name FROM emp WHERE id = 1"); err != nil || res.Rows[0][0].S != "alice" {
		t.Errorf("after rollback: %+v, %v", res, err)
	}
	if res, err = fetch(ctx, "DELETE FROM emp WHERE id > 1"); err != nil || res.RowsAffected != 2 || len(res.Columns) != 0 {
		t.Errorf("DELETE: %+v, %v", res, err)
	}
	var sqlErr *sqldb.Error
	if _, err = fetch(ctx, "SELECT * FROM missing"); !errors.As(err, &sqlErr) || sqlErr.Code != sqldb.CodeUndefinedTable {
		t.Errorf("SQLSTATE through Raw: %v", err)
	}
	if err := sc.PingContext(ctx); err != nil {
		t.Errorf("an SQL error cost the connection: %v", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err = fetch(cancelled, "SELECT 1"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: %v", err)
	}
}
