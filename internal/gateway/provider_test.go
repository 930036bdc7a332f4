package gateway

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/obs"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

// referenceExecute is the oracle the block fetch is compared against, on
// a session of its own on the twin database: it decides from the text
// whether the statement is a query, as the Scan loop did, and converts
// each cell twice, independently of ExecuteContext — engine value to the
// Go value the database/sql cursor handed out, that value to a Field. A
// context already cancelled is refused at the door. Nothing else calls it.
func referenceExecute(sess *sqldb.Session, ctx context.Context, sqlText string) (*core.SQLResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := sess.Exec(sqlText)
	if err != nil {
		return nil, err
	}
	if !isQueryStatement(sqlText) {
		return &core.SQLResult{RowsAffected: r.RowsAffected}, nil
	}
	res := &core.SQLResult{Columns: r.Columns, RowsAffected: int64(len(r.Rows))}
	for _, vals := range r.Rows {
		row := make([]core.Field, len(vals))
		for i, v := range vals {
			row[i] = toField(scanValue(v))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// isQueryStatement reports whether the statement produces a result set:
// after the comments the engine's lexer skips, it begins with SELECT or
// with EXPLAIN, whose plan is rows like any other.
func isQueryStatement(sqlText string) bool {
	kw := sqldb.HeadKeyword(sqlText)
	return kw == "SELECT" || kw == "EXPLAIN"
}

// scanValue is the value a Scan into `any` returned for an engine value.
func scanValue(v sqldb.Value) any {
	switch v.T {
	case sqldb.TInt:
		return v.I
	case sqldb.TFloat:
		return v.Float()
	case sqldb.TString:
		return v.S
	case sqldb.TBool:
		return v.Bool()
	}
	return nil
}

// toField converts a scanned value to the engine's Field.
func toField(v any) core.Field {
	switch x := v.(type) {
	case string:
		return core.Field{S: x}
	case int64:
		return core.Field{S: strconv.FormatInt(x, 10)}
	case float64:
		return core.Field{S: sqldb.NewFloat(x).String()}
	case bool:
		if x {
			return core.Field{S: "TRUE"}
		}
		return core.Field{S: "FALSE"}
	}
	return core.Field{Null: true}
}

// TestIsQueryStatement: the oracle's lex of the text agrees, on every
// case, with what the block fetch reads off the result (columns or none)
// — TestBlockFetchMatchesScan runs the statements themselves.
func TestIsQueryStatement(t *testing.T) {
	for sql, want := range map[string]bool{
		"/* c */ SELECT 1":                  true,
		"-- a\n  /* b */\n-- c\nselect 1":   true,
		"explain analyze DELETE FROM urldb": true,
		"/* SELECT */ DELETE FROM urldb":    false,
		"-- SELECT 1":                       false,
		"/* unterminated SELECT 1":          false,
		"UPDATE urldb SET title = 'SELECT'": false,
		"":                                  false,
	} {
		if got := isQueryStatement(sql); got != want {
			t.Errorf("isQueryStatement(%q) = %v, want %v", sql, got, want)
		}
	}
}

// twinRef names the second copy of a database, the one the oracle runs on.
const twinRef = "_REF"

// twinProvider runs every statement twice: through ExecuteContext on the
// database the macro names and through referenceExecute on an identically
// loaded twin, so writes cannot see each other, and requires the same
// result — or the same error — from both.
type twinProvider struct {
	t   *testing.T
	ref *sqldb.Database // the twin, the oracle's database
	n   int             // statements compared
}

// newTwins registers two databases loaded from one dataset spec ("" loads
// nothing) under name and name+twinRef.
func newTwins(t *testing.T, name, dataset string) *twinProvider {
	t.Helper()
	for _, n := range []string{name, name + twinRef} {
		db := sqldb.NewDatabase(n)
		if dataset != "" {
			if err := workload.Load(db, dataset); err != nil {
				t.Fatal(err)
			}
		}
		sqldriver.Register(n, db)
		t.Cleanup(func() { sqldriver.Unregister(n) })
	}
	ref, _ := sqldriver.Lookup(name + twinRef)
	return &twinProvider{t: t, ref: ref}
}

func (tp *twinProvider) Connect(database, login, password string) (core.DBConn, error) {
	a, err := NewSQLProvider().Connect(database, login, password)
	if err != nil {
		return nil, err
	}
	return &twinConn{tp: tp, block: a.(*sqlConn), ref: sqldb.NewSession(tp.ref)}, nil
}

type twinConn struct {
	tp    *twinProvider
	block *sqlConn
	ref   *sqldb.Session
}

func (c *twinConn) both(err, err2 error) error {
	if (err == nil) != (err2 == nil) {
		c.tp.t.Errorf("twins disagree: %v vs %v", err, err2)
	}
	return err
}

func (c *twinConn) Begin() error    { return c.both(c.block.Begin(), c.ref.BeginTxn()) }
func (c *twinConn) Commit() error   { return c.both(c.block.Commit(), c.ref.Commit()) }
func (c *twinConn) Rollback() error { return c.both(c.block.Rollback(), c.ref.Rollback()) }
func (c *twinConn) Close() error    { return c.both(c.block.Close(), c.ref.Close()) }

func (c *twinConn) Execute(sqlText string) (*core.SQLResult, error) {
	return c.ExecuteContext(context.Background(), sqlText)
}

// planTimes are the wall-clock figures of an EXPLAIN ANALYZE plan, the
// only cells two executions of one statement may differ in.
var planTimes = regexp.MustCompile(`time=[0-9.]+(ns|µs|ms|s)`)

func maskPlanTimes(res *core.SQLResult) {
	for _, row := range res.Rows {
		for i := range row {
			row[i].S = planTimes.ReplaceAllString(row[i].S, "time=T")
		}
	}
}

func (c *twinConn) ExecuteContext(ctx context.Context, sqlText string) (*core.SQLResult, error) {
	t := c.tp.t
	t.Helper()
	c.tp.n++
	got, gotErr := c.block.ExecuteContext(ctx, sqlText)
	want, wantErr := referenceExecute(c.ref, ctx, sqlText)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Errorf("%s\nblock fetch error: %v\n  reference error: %v", sqlText, gotErr, wantErr)
		return got, gotErr
	}
	if gotErr != nil {
		var gs, ws core.SQLStater
		if errors.As(gotErr, &gs) != errors.As(wantErr, &ws) || gs != nil && gs.SQLState() != ws.SQLState() {
			t.Errorf("%s\nSQLSTATE differs: %v vs %v", sqlText, gotErr, wantErr)
		}
		return got, gotErr
	}
	if sqldb.HeadKeyword(sqlText) == "EXPLAIN" {
		maskPlanTimes(got)
		maskPlanTimes(want)
	}
	if !reflect.DeepEqual(got, want) {
		at := 0
		for at < len(got.Rows) && at < len(want.Rows) && reflect.DeepEqual(got.Rows[at], want.Rows[at]) {
			at++
		}
		t.Errorf("%s\nblock fetch: %s\n  reference: %s\nrows differ from row %d", sqlText, describe(got), describe(want), at)
		if at < len(got.Rows) && at < len(want.Rows) {
			t.Errorf("row %d:\nblock fetch: %#v\n  reference: %#v", at, got.Rows[at], want.Rows[at])
		}
	}
	return got, nil
}

// describe prints a result's shape so that nil and empty differ.
func describe(res *core.SQLResult) string {
	return fmt.Sprintf("columns=%#v affected=%d rows=%d (nil=%v)", res.Columns, res.RowsAffected, len(res.Rows), res.Rows == nil)
}

// blockFetchCorpus is the golden corpus of ../../golden_test.go (a name is
// that of its page under testdata/golden/corpus; the test below fails if
// a page there has no request here) plus, unnamed, the form shapes
// benchmark/workloads.go submits that the corpus has no page for.
var blockFetchCorpus = []struct {
	dir, dataset string
	cases        [][3]string // name, {macro}/{cmd}, query
}{
	{"testdata/macros", "urldb:60:1", [][3]string{
		{"urlquery_input", "urlquery.d2w/input", ""},
		{"urlquery_report", "urlquery.d2w/report", "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"},
		{"urlquery_report_hidden", "urlquery.d2w/report",
			"SEARCH=e&USE_DESC=yes&DBFIELDS=%24%28hidden_a%29&DBFIELDS=%24%28hidden_b%29&SHOWSQL=YES"},
		{"urlquery_report_all", "urlquery.d2w/report", "SEARCH=&DBFIELDS=title&DBFIELDS=description"},
		{"urlquery_report_bare", "urlquery.d2w/report", ""},
		{"urlquery_report_window", "urlquery.d2w/report", "DBFIELDS=title&RPT_MAXROWS=7&RPT_STARTROW=5"},
		{"urlquery_report_norows", "urlquery.d2w/report", "SEARCH=zzzz&USE_URL=yes"},
		{"urlquery_report_sqlerror", "urlquery.d2w/report", "SEARCH='&USE_URL=yes"},
		{"figure2_input", "figure2.d2w/input", ""},
		{"figure2_report", "figure2.d2w/report", ""},
		{"rowvars_input", "rowvars.d2w/input", ""},
		{"rowvars_report", "rowvars.d2w/report", ""},
		{"rowvars_report_window", "rowvars.d2w/report", "RPT_STARTROW=58&RPT_MAXROWS=9"},
		{"rowvars_report_unlimited", "rowvars.d2w/report", "RPT_MAXROWS=0&RPT_STARTROW=55"},
	}},
	{"benchmark/macros/urldb", "urldb:60:1", [][3]string{
		{"bench_urlquery_input", "urlquery.d2w/input", ""},
		{"bench_urlquery_report", "urlquery.d2w/report", "SEARCH=ib&USE_TITLE=yes&DBFIELDS=title&DBFIELDS=description"},
		{"bench_detail_input", "detail.d2w/input", ""},
		{"bench_detail_report", "detail.d2w/report", "U=http%3A%2F%2Fwww.ibm1.com%2F"},
		{"bench_detail_report_quote", "detail.d2w/report", "U=it%27s"},
		{"", "urlquery.d2w/report", "SEARCH=web&USE_URL=yes&USE_TITLE=yes&DBFIELDS=%24%28hidden_a%29"},
		{"", "urlquery.d2w/report", "SEARCH=a&USE_TITLE=yes&USE_DESC=yes&DBFIELDS=%24%28hidden_a%29&DBFIELDS=%24%28hidden_b%29"},
		{"", "urlquery.d2w/report", "SEARCH=ib&USE_URL=yes"},
		{"", "urlquery.d2w/report", "SEARCH=net&USE_URL=yes&USE_TITLE=yes&USE_DESC=yes&DBFIELDS=%24%28hidden_b%29"},
		{"", "urlquery.d2w/report", "SEARCH=&DBFIELDS=%24%28hidden_a%29&DBFIELDS=%24%28hidden_b%29"},
	}},
	{"benchmark/macros/orders", "orders:8:6:2", [][3]string{
		{"bench_orders_input", "orders.d2w/input", ""},
		{"bench_orders_products", "orders.d2w/report", "sqlcmd=products&cust_inp=10100&prod_inp=b"},
		{"bench_orders_products_none", "orders.d2w/report", "sqlcmd=products&prod_inp=zzz"},
		{"bench_orders_spend", "orders.d2w/report", "sqlcmd=spend"},
		{"bench_orders_ship", "orders.d2w/report", "sqlcmd=ship&prod_id=3"},
		{"", "orders.d2w/report", "sqlcmd=products&cust_inp=10100&prod_inp="},
	}},
}

// TestBlockFetchMatchesScan requires the block fetch and the reference
// conversion of the Scan loop it replaced to return reflect.DeepEqual
// results for every statement the golden corpus executes — served through
// the engine, so the pages are checked against the golden files on the
// way — and for a typed table of the cases a page does not show apart.
func TestBlockFetchMatchesScan(t *testing.T) {
	root := repoRoot(t)
	golden := filepath.Join(root, "testdata/golden/corpus")
	served := map[string]bool{}
	for _, set := range blockFetchCorpus {
		tp := newTwins(t, "CELDIAL", set.dataset)
		app := &App{
			MacroDir: filepath.Join(root, set.dir),
			Engine:   &core.Engine{DB: tp},
		}
		for _, c := range set.cases {
			resp, err := app.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/" + c[1], QueryString: c[2]})
			if err != nil {
				t.Fatalf("%s?%s: %v", c[1], c[2], err)
			}
			if c[0] == "" {
				continue
			}
			served[c[0]+".html"] = true
			want, err := os.ReadFile(filepath.Join(golden, c[0]+".html"))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("status %d\n%s", resp.Status, resp.Body); got != string(want) {
				t.Errorf("%s: page differs from testdata/golden/corpus", c[0])
			}
		}
		if tp.n == 0 {
			t.Errorf("%s: no statement reached the provider", set.dir)
		}
	}
	pages, err := filepath.Glob(filepath.Join(golden, "*.html"))
	if err != nil || len(pages) == 0 {
		t.Fatalf("no golden pages: %v", err)
	}
	for _, p := range pages {
		if !served[filepath.Base(p)] {
			t.Errorf("golden page %s has no request in blockFetchCorpus", filepath.Base(p))
		}
	}

	tp := newTwins(t, "TYPES", "")
	dbc, err := tp.Connect("TYPES", "", "")
	if err != nil {
		t.Fatal(err)
	}
	conn := dbc.(*twinConn)
	defer conn.Close()
	run := func(sqlText string) *core.SQLResult {
		t.Helper()
		res, err := conn.Execute(sqlText)
		if err != nil {
			t.Fatalf("%s: %v", sqlText, err)
		}
		return res
	}
	run("CREATE TABLE v (id INTEGER NOT NULL PRIMARY KEY, s VARCHAR(16), n INTEGER, f DOUBLE, b BOOLEAN)")
	if res := run("INSERT INTO v VALUES (1, NULL, -7, 1e7, TRUE), (2, '', 4294967296, 1e21, FALSE), " +
		"(3, 'x', NULL, 0.1, NULL), (4, 'it''s', 0, -0.00001, TRUE)"); res.RowsAffected != 4 {
		t.Errorf("INSERT affected %d rows, want 4", res.RowsAffected)
	}
	res := run("SELECT s, n, f, b FROM v ORDER BY id")
	want := [][]core.Field{
		{{Null: true}, {S: "-7"}, {S: "10000000"}, {S: "TRUE"}},
		{{S: ""}, {S: "4294967296"}, {S: "1e+21"}, {S: "FALSE"}},
		{{S: "x"}, {Null: true}, {S: "0.1"}, {Null: true}},
		{{S: "it's"}, {S: "0"}, {S: "-1e-05"}, {S: "TRUE"}},
	}
	if !reflect.DeepEqual(res.Rows, want) || res.RowsAffected != 4 {
		t.Errorf("typed rows:\n got %#v\nwant %#v", res.Rows, want)
	}
	if res := run("SELECT s FROM v WHERE id > 99"); res.Rows != nil || len(res.Columns) != 1 || res.RowsAffected != 0 {
		t.Errorf("zero-row SELECT: %s", describe(res))
	}
	run("SELECT COUNT(*), SUM(n), AVG(f), MIN(s) FROM v")
	run("/* c */ SELECT id FROM v -- tail")
	run("EXPLAIN SELECT s FROM v WHERE id = 2")
	if res := run("EXPLAIN ANALYZE DELETE FROM v WHERE id = 4"); len(res.Rows) == 0 || len(res.Columns) != 1 {
		t.Errorf("EXPLAIN ANALYZE DELETE returned no plan: %s", describe(res))
	}
	if res := run("UPDATE v SET n = n + 1 WHERE n IS NOT NULL"); res.RowsAffected != 2 || res.Columns != nil {
		t.Errorf("UPDATE: %s", describe(res))
	}
	if res := run("DELETE FROM v WHERE id = 3"); res.RowsAffected != 1 {
		t.Errorf("DELETE: %s", describe(res))
	}
	run("DELETE FROM v WHERE id = 99")

	_, err = conn.Execute("SELECT * FROM missing")
	var st core.SQLStater
	if !errors.As(err, &st) || st.SQLState() != sqldb.CodeUndefinedTable {
		t.Errorf("error lost its SQLSTATE: %v", err)
	}
	if _, err := conn.Execute("INSERT INTO v VALUES (1, 'dup', 0, 0, NULL)"); err == nil {
		t.Error("duplicate key accepted")
	}
	// An error leaves the connection usable, and a statement inside a
	// transaction sees that transaction's own uncommitted write.
	if err := conn.Begin(); err != nil {
		t.Fatal(err)
	}
	run("UPDATE v SET s = 'mine' WHERE id = 1")
	if res := run("SELECT s FROM v WHERE id = 1"); res.Rows[0][0].S != "mine" {
		t.Errorf("inside the transaction s = %q, want its own write", res.Rows[0][0].S)
	}
	if err := conn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if res := run("SELECT s FROM v WHERE id = 1"); !res.Rows[0][0].Null {
		t.Errorf("after rollback s = %+v, want NULL", res.Rows[0][0])
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := conn.ExecuteContext(cancelled, "SELECT id FROM v"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: %v", err)
	}
	for sqlText, kind := range map[string]string{"SELECT id FROM v": "select", "INSERT INTO v (id) VALUES (9)": "write"} {
		info := &obs.SQLExec{}
		if _, err := conn.block.ExecuteContext(obs.WithSQLExec(context.Background(), info), sqlText); err != nil {
			t.Fatal(err)
		}
		if info.Kind != kind || info.Digest == "" {
			t.Errorf("%s: the obs.SQLExec entry on ctx did not reach the engine: %+v", sqlText, info)
		}
	}
}

// urldbConn opens a provider connection and an engine session on one
// freshly generated urldb of n rows.
func urldbConn(tb testing.TB, n int) (*sqlConn, *sqldb.Session) {
	tb.Helper()
	name := fmt.Sprintf("URLDB%d", n)
	db := sqldb.NewDatabase(name)
	if err := workload.Load(db, fmt.Sprintf("urldb:%d:1", n)); err != nil {
		tb.Fatal(err)
	}
	sqldriver.Register(name, db)
	conn, err := NewSQLProvider().Connect(name, "", "")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = conn.Close()
		sqldriver.Unregister(name)
	})
	return conn.(*sqlConn), sqldb.NewSession(db)
}

const wholeTable = "SELECT url, title, description FROM urldb ORDER BY title"

// TestProviderAllocationsIndependentOfRows: what the provider allocates
// on top of the engine is a small constant — the result and its two slices
// — at 200 rows and at 2 000 alike (the Scan loop boxed every cell: 3
// allocations a row), and a connection is the adapter and its session,
// with no pool to take it from or hand it back to.
func TestProviderAllocationsIndependentOfRows(t *testing.T) {
	ctx := context.Background()
	urldbConn(t, 1) // registers URLDB1
	if n := testing.AllocsPerRun(100, func() {
		conn, err := NewSQLProvider().Connect("URLDB1", "login", "password")
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Connect + Close with no statement allocates %.0f objects, want at most 2", n)
	}
	var added []float64
	for _, n := range []int{200, 2000} {
		conn, sess := urldbConn(t, n)
		engine := testing.AllocsPerRun(20, func() {
			if res, err := sess.ExecContext(ctx, wholeTable); err != nil || len(res.Rows) != n {
				t.Fatalf("engine: %v", err)
			}
		})
		provider := testing.AllocsPerRun(20, func() {
			if res, err := conn.ExecuteContext(ctx, wholeTable); err != nil || len(res.Rows) != n {
				t.Fatalf("provider: %v", err)
			}
		})
		t.Logf("%d rows: engine %.0f allocations, through the provider %.0f", n, engine, provider)
		added = append(added, provider-engine)
	}
	if added[0] != added[1] || added[0] > 8 {
		t.Errorf("the provider adds %.0f allocations at 200 rows and %.0f at 2000, want one constant of at most 8", added[0], added[1])
	}
}

// BenchmarkProviderExecute is the cost of one result crossing from the
// engine to the macro engine's shape, the whole table unsorted so that the
// engine under it only scans (its rows are the table's own): beside
// BenchmarkBigReportStatement of internal/sqldb, which is the engine's
// half of the big report.
func BenchmarkProviderExecute(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{1, 100, 2000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			conn, _ := urldbConn(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := conn.ExecuteContext(ctx, "SELECT url, title, description FROM urldb")
				if err != nil || len(res.Rows) != n {
					b.Fatalf("%d rows, %v", len(res.Rows), err)
				}
			}
		})
	}
}
