// Package bench answers what a component costs: one testing.B benchmark
// per experiment in DESIGN.md's per-experiment index (the paper's figures
// E1–E13 and the ablations A1–A5), and the only timing of them — whether
// a figure is reproduced is asserted by internal/experiments' tests, what
// the server costs end to end is benchmark/. Every number of
// EXPERIMENTS.md that is not the yardstick's names the benchmark here
// that regenerates it:
//
//	go test -run '^$' -bench . -benchmem .
//	go test -run '^$' -bench E1_ -benchtime 3200x .   # Figure 1's series
package bench

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"db2www/internal/baseline/gsql"
	"db2www/internal/baseline/rawcgi"
	"db2www/internal/baseline/wdb"
	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/experiments"
	"db2www/internal/gateway"
	"db2www/internal/htmlutil"
	"db2www/internal/macrolint"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

// newStack builds the standard Appendix A stack for benchmarks.
func newStack(b testing.TB, rows int) *experiments.Stack {
	b.Helper()
	st, err := experiments.NewStack(experiments.StackConfig{Rows: rows, Seed: 1, CacheMacros: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(st.Close)
	return st
}

// BenchmarkE1_Figure1_ConcurrentClients measures the full browser → HTTP
// → CGI → macro engine → SQL → report flow under 1 to 16 concurrent
// clients (Figure 1's many-browsers topology). The clients of a row share
// its b.N interactions, so -benchtime 3200x is 3 200 interactions a row;
// req/s counts interactions (form, then report) and p95-ms is their 95th
// percentile.
func BenchmarkE1_Figure1_ConcurrentClients(b *testing.B) {
	st := newStack(b, 500)
	for _, clients := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			lat := make([]time.Duration, b.N)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := st.Client()
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						start := time.Now()
						if _, err := experiments.URLQueryFlow(c); err != nil {
							b.Error(err)
							return
						}
						lat[i] = time.Since(start)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			b.ReportMetric(lat[max(len(lat)*95/100-1, 0)].Seconds()*1e3, "p95-ms")
		})
	}
}

// BenchmarkE2_Figure2_InputMode measures input-mode macro processing:
// generating the paper's Figure 2 form.
func BenchmarkE2_Figure2_InputMode(b *testing.B) {
	src, err := os.ReadFile("testdata/macros/figure2.d2w")
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Parse("figure2.d2w", string(src))
	if err != nil {
		b.Fatal(err)
	}
	e := &core.Engine{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := e.Run(m, core.ModeInput, nil, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_Figure3_FormFillSubmit measures the client side of
// Figure 3: parsing the generated form, applying selections, and
// producing the submission pairs.
func BenchmarkE3_Figure3_FormFillSubmit(b *testing.B) {
	body, err := experiments.RenderFigure2()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forms := htmlutil.ParseForms(body)
		if len(forms) != 1 {
			b.Fatal("form count")
		}
		if err := forms[0].SelectOptions("DBFIELD", "title", "desc"); err != nil {
			b.Fatal(err)
		}
		if forms[0].Submission().Len() != 6 {
			b.Fatal("pair count")
		}
	}
}

// BenchmarkE4_Figure4_CGIFlows measures the two invocation flows of
// Figure 4 against the in-process harness, and the fork/exec subprocess
// model in a sub-benchmark.
func BenchmarkE4_Figure4_CGIFlows(b *testing.B) {
	st := newStack(b, 500)
	qs := "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"
	getReq := &cgi.Request{Method: "GET", PathInfo: "/urlquery.d2w/report", QueryString: qs}
	postReq := &cgi.Request{Method: "POST", PathInfo: "/urlquery.d2w/report",
		ContentType: cgi.FormEncoded, Body: qs}

	b.Run("GET_QueryString", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.App.ServeCGI(getReq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("POST_Stdin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.App.ServeCGI(postReq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Subprocess", func(b *testing.B) {
		bin, err := buildOnce()
		if err != nil {
			b.Skipf("cannot build db2www: %v", err)
		}
		env := []string{
			"DB2WWW_MACRO_DIR=" + st.MacroDir,
			"DB2WWW_DATABASE=" + st.DBName,
			"DB2WWW_DATASET=urldb:500:1",
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cgi.InvokeProcess(bin, nil, getReq, env, 30*time.Second); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var (
	buildMu   sync.Mutex
	builtBin  string
	buildErr  error
	buildDone bool
)

// buildOnce compiles cmd/db2www a single time per bench run.
func buildOnce() (string, error) {
	buildMu.Lock()
	defer buildMu.Unlock()
	if !buildDone {
		dir, err := os.MkdirTemp("", "db2www-bench-")
		if err == nil {
			builtBin, buildErr = experiments.BuildDB2WWW(dir)
		} else {
			buildErr = err
		}
		buildDone = true
	}
	return builtBin, buildErr
}

// BenchmarkE5_Figure5_MacroPipeline measures the development pipeline:
// parse + lint of the Appendix A macro.
func BenchmarkE5_Figure5_MacroPipeline(b *testing.B) {
	src, err := os.ReadFile("testdata/macros/urlquery.d2w")
	if err != nil {
		b.Fatal(err)
	}
	linter := macrolint.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.Parse("urlquery.d2w", string(src))
		if err != nil {
			b.Fatal(err)
		}
		if diags := linter.LintMacro(m, "urlquery.d2w"); macrolint.HasErrors(diags) {
			b.Fatal("unexpected lint errors")
		}
	}
}

// BenchmarkE6_Figure6_RuntimeModes measures input- vs report-mode
// processing of the same macro (the Figure 6 flow fork).
func BenchmarkE6_Figure6_RuntimeModes(b *testing.B) {
	m, err := core.Parse("lazy.d2w", `
%define X = "One$(Y)$(Z)"
%define Y = " Two"
%HTML_INPUT{$(X)%}
%define Z = " Three"
%HTML_REPORT{$(X)%}
`)
	if err != nil {
		b.Fatal(err)
	}
	e := &core.Engine{}
	for _, mode := range []core.Mode{core.ModeInput, core.ModeReport} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := e.Run(m, mode, nil, &buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7_Figure78_AppendixA measures the complete Appendix A
// application turn: form fetch, fill, submit, report with hyperlinks.
func BenchmarkE7_Figure78_AppendixA(b *testing.B) {
	st := newStack(b, 500)
	c := st.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.URLQueryFlow(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_WhereClause measures the Section 3.1.3 conditional+list
// WHERE-clause construction.
func BenchmarkE8_WhereClause(b *testing.B) {
	m, err := core.Parse("where.d2w", `
%define{
%list " AND " where_list
where_list = ? "custid = $(cust_inp)"
where_list = ? "product_name LIKE '$(prod_inp)%'"
where_clause = ? "WHERE $(where_list)"
%}
%HTML_INPUT{$(where_clause)%}
`)
	if err != nil {
		b.Fatal(err)
	}
	in := cgi.NewForm()
	in.Add("cust_inp", "10100")
	in.Add("prod_inp", "bikes")
	e := &core.Engine{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := e.Run(m, core.ModeInput, in, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_TransactionModes measures report processing of a
// three-statement update macro under the two Section 5 transaction modes.
func BenchmarkE9_TransactionModes(b *testing.B) {
	for _, mode := range []struct {
		name string
		txn  core.TxnMode
	}{{"AutoCommit", core.TxnAutoCommit}, {"SingleTxn", core.TxnSingle}} {
		b.Run(mode.name, func(b *testing.B) {
			db := sqldb.NewDatabase("BENCHTXN")
			s := sqldb.NewSession(db)
			if _, err := s.ExecScript("CREATE TABLE t (id INTEGER, v VARCHAR(20))"); err != nil {
				b.Fatal(err)
			}
			sqldriver.Register("BENCHTXN", db)
			defer sqldriver.Unregister("BENCHTXN")
			m, err := core.Parse("txn.d2w", `
%define DATABASE = "BENCHTXN"
%SQL{INSERT INTO t VALUES (1, 'a')%}
%SQL{UPDATE t SET v = 'b' WHERE id = 1%}
%SQL{DELETE FROM t WHERE id = 1%}
%HTML_REPORT{%EXEC_SQL%}
`)
			if err != nil {
				b.Fatal(err)
			}
			eng := &core.Engine{DB: gateway.NewSQLProvider(), Txn: mode.txn}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := eng.Run(m, core.ModeReport, nil, &buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10_Baselines measures the same report request on all four
// systems of the Section 6 comparison.
func BenchmarkE10_Baselines(b *testing.B) {
	db := sqldb.NewDatabase("BENCHBASE")
	if err := workload.URLDB(db, 500, 1); err != nil {
		b.Fatal(err)
	}
	sqldriver.Register("BENCHBASE", db)
	b.Cleanup(func() { sqldriver.Unregister("BENCHBASE") })

	st, err := experiments.NewStack(experiments.StackConfig{
		DBName: "BENCHCEL", Rows: 500, Seed: 1, CacheMacros: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(st.Close)
	// Retarget the stack macro at its own database name.
	src, err := os.ReadFile("testdata/macros/urlquery.d2w")
	if err != nil {
		b.Fatal(err)
	}
	macro := bytes.Replace(src, []byte(`DATABASE = "CELDIAL"`), []byte(`DATABASE = "BENCHCEL"`), 1)
	if err := st.WriteMacro("urlquery.d2w", string(macro)); err != nil {
		b.Fatal(err)
	}

	proc, err := gsql.ParseProc(`
HEADING "URL Query"
INPUT SEARCH text
DATABASE BENCHBASE
SQL SELECT url, title FROM urldb WHERE title LIKE '%$SEARCH%' ORDER BY title
`)
	if err != nil {
		b.Fatal(err)
	}
	fdf, err := wdb.GenerateFDF("BENCHBASE", "urldb")
	if err != nil {
		b.Fatal(err)
	}
	req := &cgi.Request{Method: "GET", PathInfo: "/urlquery.d2w/report",
		QueryString: "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"}
	systems := []struct {
		name string
		h    cgi.Handler
	}{
		{"DB2WWW", st.App},
		{"GSQL", &gsql.App{Proc: proc}},
		{"WDB", &wdb.App{FDF: fdf}},
		{"RawCGI", &rawcgi.App{Database: "BENCHBASE"}},
	}
	for _, sys := range systems {
		b.Run(sys.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := sys.h.ServeCGI(req)
				if err != nil || resp.Status != 200 {
					b.Fatalf("status %d err %v", resp.Status, err)
				}
			}
		})
	}
}

// BenchmarkE11_Restyle measures report rendering under the three
// Section 7 report styles over identical SQL.
func BenchmarkE11_Restyle(b *testing.B) {
	db := sqldb.NewDatabase("RESTYLE")
	if err := workload.URLDB(db, 200, 1); err != nil {
		b.Fatal(err)
	}
	sqldriver.Register("RESTYLE", db)
	b.Cleanup(func() { sqldriver.Unregister("RESTYLE") })
	for name, src := range experiments.Restyles() {
		m, err := core.Parse(name, src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			eng := &core.Engine{DB: gateway.NewSQLProvider()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := eng.Run(m, core.ModeReport, nil, &buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12_ListVariables measures list-variable expansion at
// increasing input fan-out.
func BenchmarkE12_ListVariables(b *testing.B) {
	m, err := core.Parse("list.d2w", `
%define{
%list " OR " conds
%}
%HTML_INPUT{WHERE $(conds)%}
`)
	if err != nil {
		b.Fatal(err)
	}
	e := &core.Engine{}
	for _, k := range []int{1, 16, 256} {
		in := cgi.NewForm()
		for i := 0; i < k; i++ {
			in.Add("conds", fmt.Sprintf("col%d = 'v%d'", i, i))
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := e.Run(m, core.ModeInput, in, &buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE13_BigReport measures the row path: the Appendix A macro with
// no checkbox ticked and both report fields selected prints all 2 000
// rows of the table, ORDER BY title, as one 364 KB page — the shape of
// the benchmark's big_report workload, served through the HTTP handler.
func BenchmarkE13_BigReport(b *testing.B) {
	get := bigReport(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// bigReportURL is the E13 request: no checkbox ticked, both report fields.
const bigReportURL = "http://server/cgi-bin/db2www/urlquery.d2w/report?DBFIELDS=title&DBFIELDS=description"

// bigReport returns the request of BenchmarkE13_BigReport, checked.
func bigReport(tb testing.TB) func() {
	st := newStack(tb, 2000)
	c := st.Client()
	return func() {
		page, err := c.Get(bigReportURL)
		if err != nil {
			tb.Fatal(err)
		}
		checkBigReport(tb, page.Status, page.Body)
	}
}

func checkBigReport(tb testing.TB, status int, body string) {
	if rows := strings.Count(body, "<LI>"); status != 200 || rows != 2001 {
		tb.Fatalf("status %d, %d <LI>", status, rows)
	}
}

// BenchmarkE13_BigReportHit is the E13 request as the server gatewayd
// builds by default answers it (gateway.NewServer over the flag defaults),
// and as the big_report workload's end-to-end rows measure it: the query
// cache answers the statement, and from the third request on the %ROW
// block is written from the memo its second rendering left on the cached
// result. The page goes to a writer that drops it.
func BenchmarkE13_BigReportHit(b *testing.B) {
	srv, err := gateway.NewServer(experiments.GatewaydConfig("testdata/macros", 2000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	req := httptest.NewRequest("GET", bigReportURL, nil)
	for i := 0; i < 3; i++ { // a miss, the memo fill, a hit served from the memo
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		checkBigReport(b, rec.Code, rec.Body.String())
	}
	w := discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkHitFloor is what a hit cannot go below: the server gatewayd
// builds by default answers a one-line report that runs no SQL, so the
// request is net/http's handler path, routing, the request record, the
// parsed-macro cache and the page buffer, and nothing of the row path.
// BenchmarkE13_BigReportHit and BenchmarkAppendixAHit less this are what
// their reports add to a request.
func BenchmarkHitFloor(b *testing.B) {
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "floor.d2w"), []byte("%HTML_REPORT{<P>floor</P>\n%}\n"), 0o644); err != nil {
		b.Fatal(err)
	}
	srv, err := gateway.NewServer(experiments.GatewaydConfig(dir, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	req := httptest.NewRequest("GET", "http://server/cgi-bin/db2www/floor.d2w/report", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 || rec.Body.String() != "<P>floor</P>\n" {
		b.Fatalf("status %d: %q", rec.Code, rec.Body)
	}
	w := discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// appendixAForms are the query strings of the four ways the benchmark's
// appendixa_search workload fills in the Appendix A form, the form's default
// first. They select url and title, all three columns, url alone, and url
// and description.
var appendixAForms = []string{
	"SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=%24%28hidden_a%29",
	"SEARCH=ib&USE_TITLE=yes&USE_DESC=yes&DBFIELDS=%24%28hidden_a%29&DBFIELDS=%24%28hidden_b%29",
	"SEARCH=ib&USE_URL=yes",
	"SEARCH=ib&USE_URL=yes&USE_TITLE=yes&USE_DESC=yes&DBFIELDS=%24%28hidden_b%29",
}

// appendixAHit returns the Appendix A report of form over the 500-row
// table as the server gatewayd builds by default answers it from the third
// request on: a cache hit whose %ROW block is written from the memo. The
// page goes to a writer that drops it.
func appendixAHit(tb testing.TB, form string) func() {
	srv, err := gateway.NewServer(experiments.GatewaydConfig("testdata/macros", 500, 1))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	req := httptest.NewRequest("GET", "http://server/cgi-bin/db2www/urlquery.d2w/report?"+form, nil)
	for i := 0; i < 3; i++ { // a miss, the memo fill, a hit served from the memo
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), "<LI>") {
			tb.Fatalf("%s: status %d, no rows", form, rec.Code)
		}
	}
	if render := srv.Traces.Snapshot()[0].SQL[0].Render; render != "memo" {
		tb.Fatalf("%s: the third request's render=%q, want memo", form, render)
	}
	w := discardWriter{header: http.Header{}}
	return func() { h.ServeHTTP(w, req) }
}

// BenchmarkAppendixAHit is each request of the appendixa_search workload
// as its end-to-end rows measure it (appendixAHit).
func BenchmarkAppendixAHit(b *testing.B) {
	for i, form := range appendixAForms {
		b.Run(fmt.Sprintf("form=%d", i), func(b *testing.B) {
			serve := appendixAHit(b, form)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// TestAppendixAHitAllocations gates what BenchmarkAppendixAHit prints as
// allocs/op: a hit of any of the four forms makes at most 120 allocations
// (86–102 with the rows written from the memo), so a form that falls back to
// printing row by row cannot go unnoticed.
func TestAppendixAHitAllocations(t *testing.T) {
	for i, form := range appendixAForms {
		allocs := testing.AllocsPerRun(20, appendixAHit(t, form))
		t.Logf("form %d: %.0f allocations per hit", i, allocs)
		if allocs > 120 {
			t.Errorf("form %d: %.0f allocations per hit, want at most 120", i, allocs)
		}
	}
}

// TestBigReportAllocations gates what BenchmarkE13_BigReport prints as
// allocs/op: the 2 000-row report makes at most 200 allocations (137 with
// the block fetch; 5 988 while the driver's cursor boxed one value per
// cell), so a per-row or per-cell allocation cannot come back unnoticed.
func TestBigReportAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(10, bigReport(t))
	t.Logf("%.0f allocations per 2 000-row report", allocs)
	if allocs > 200 {
		t.Errorf("%.0f allocations per 2 000-row report, want at most 200", allocs)
	}
}

// discardWriter is a ResponseWriter that drops the page and allocates
// nothing, so that what a request allocates is the server's alone.
type discardWriter struct{ header http.Header }

func (w discardWriter) Header() http.Header         { return w.header }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestBigReportAllocBytes gates the bytes the server allocates for the E13
// request: at most 450 KB (352 with the page rendered into a buffer the
// server keeps; 737 while every request built its 364 KB page afresh). The
// collector runs every so many bytes, not objects, so this is the number
// that decides how often it runs. BenchmarkE13_BigReport's B/op cannot say
// it: it also counts the client's copy of the page.
func TestBigReportAllocBytes(t *testing.T) {
	st := newStack(t, 2000)
	w := discardWriter{header: http.Header{}}
	req := httptest.NewRequest("GET", bigReportURL, nil)
	serve := func() { st.Handler.ServeHTTP(w, req) }
	serve() // the macro is parsed and the first page buffer grown
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("%.0f KB allocated per 2 000-row report", kb)
	if kb > 450 {
		t.Errorf("%.0f KB allocated per 2 000-row report, want at most 450", kb)
	}
}

// ordersRequests is one operation of orders.d2w as the orders_mixed
// workload posts it, in n distinct forms, ready to be served again and
// again: a product search per customer and name prefix, a spend report per
// customer, a ship of one product (the UPDATE and its read-back), and the
// input form.
func ordersRequests(op string, n int) []*http.Request {
	prefixes := []string{"bik", "hel", "loc", "ten", "rop", "sto", "pac", "boo"}
	reqs := make([]*http.Request, n)
	for i := range reqs {
		f := cgi.NewForm()
		cust := fmt.Sprint(10000 + 100*(i%200))
		switch op {
		case "products":
			f.Add("sqlcmd", op)
			f.Add("cust_inp", cust)
			f.Add("prod_inp", prefixes[(i/200)%len(prefixes)])
		case "spend":
			f.Add("sqlcmd", op)
			f.Add("cust_inp", cust)
		case "ship":
			f.Add("sqlcmd", op)
			f.Add("prod_id", fmt.Sprint(2+i%3998))
		case "input":
			reqs[i] = httptest.NewRequest("GET", "http://server/cgi-bin/db2www/orders.d2w/input", nil)
			continue
		}
		body := &replayBody{src: f.Encode()}
		req := httptest.NewRequest("POST", "http://server/cgi-bin/db2www/orders.d2w/report", nil)
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		req.Body, req.ContentLength = body, int64(len(body.src))
		reqs[i] = req
	}
	return reqs
}

// replayBody is a request body that is read again from its start each
// time it is closed, so that one *http.Request can be served many times
// without the test allocating a body per request.
type replayBody struct {
	src string
	r   strings.Reader
	on  bool
}

func (b *replayBody) Read(p []byte) (int, error) {
	if !b.on {
		b.r.Reset(b.src)
		b.on = true
	}
	return b.r.Read(p)
}

func (b *replayBody) Close() error { b.on = false; return nil }

// TestOrdersRequestAllocations gates what each operation of the
// orders_mixed workload allocates in the server gatewayd builds by default
// (gateway.NewServer over the flag defaults, orders:200:20:1 and
// benchmark/macros/orders), after a warm-up of the workload's mix. Each
// row but the hits measures requests whose SELECT text the server has not
// seen since the warm-up, so the engine executes it and the query cache
// fills an entry from it — since a ship drops only the cached reads its
// row can change, admission no longer refuses the searches. The hit rows
// serve the texts the row before filled. Bytes decide how often the
// collector runs. Before the ceilings, a search was 143 allocations and
// 10.2 KB, a spend report 243 and 22.7 KB, a ship 157 and 11.2 KB, the
// input form 32 and 2.8 KB; until the fills, each ran with admission
// refusing its shape, and the ceilings held the fill's bookkeeping too.
func TestOrdersRequestAllocations(t *testing.T) {
	cfg := gateway.DefaultServerConfig()
	cfg.Macros = filepath.Join("benchmark", "macros", "orders")
	cfg.Dataset = "orders:200:20:1"
	srv, err := gateway.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	w := discardWriter{header: http.Header{}}
	const n = 1600
	ops := map[string][]*http.Request{}
	for _, op := range []string{"input", "products", "spend", "ship"} {
		ops[op] = ordersRequests(op, n)
	}
	serve := func(req *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 || strings.Contains(rec.Body.String(), "rror") {
			t.Fatalf("%s: status %d: %s", req.URL, rec.Code, rec.Body)
		}
		req.Body.Close()
	}
	const warm = 64
	for i := 0; i < warm; i++ { // the workload's mix: searches, reports, ships
		serve(ops["products"][n-1-i])
		serve(ops["spend"][n-1-i])
		serve(ops["ship"][n-1-i])
	}
	// ordersRequests has a spend report per customer, 200 of them: the
	// warm-up read the last warm of them.
	const spends = 200 - warm
	for _, c := range []struct {
		op             string
		runs           int
		hit            bool
		allocs, bytesK float64
	}{
		{"input", 400, false, 20, 2.0},
		{"products", 400, false, 85, 6.5},
		{"products", 400, true, 47, 4.0},
		{"spend", spends, false, 107, 8.7},
		{"spend", spends, true, 46, 3.7},
		{"ship", 400, false, 101, 8.3},
	} {
		name := c.op
		if c.hit {
			name += " hit"
		}
		hits := srv.QCache.Stats().Hits
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < c.runs; i++ {
			req := ops[c.op][i]
			h.ServeHTTP(w, req)
			req.Body.Close()
		}
		runtime.ReadMemStats(&after)
		if c.op != "input" {
			if got := srv.QCache.Stats().Hits - hits; c.hit != (got == int64(c.runs)) || !c.hit && got != 0 {
				t.Errorf("%s: %d of %d requests were cache hits", name, got, c.runs)
			}
		}
		allocs := float64(after.Mallocs-before.Mallocs) / float64(c.runs)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.runs) / 1024
		t.Logf("%s: %.0f allocations, %.2f KB a request", name, allocs, kb)
		if allocs > c.allocs || kb > c.bytesK {
			t.Errorf("%s: %.0f allocations and %.2f KB a request, want at most %.0f and %.1f",
				name, allocs, kb, c.allocs, c.bytesK)
		}
	}
}

// BenchmarkA1_LazyVsEager measures page generation when k of 1000
// defined variables are actually referenced: lazy evaluation pays only
// for k (the k=1000 row is what an eager evaluator always pays).
func BenchmarkA1_LazyVsEager(b *testing.B) {
	var defs bytes.Buffer
	defs.WriteString("%define{\nv0 = \"x\"\n")
	for i := 1; i < 1000; i++ {
		fmt.Fprintf(&defs, "v%d = \"$(v%d).\"\n", i, i-1)
	}
	defs.WriteString("%}\n")
	for _, k := range []int{1, 100, 1000} {
		var refs bytes.Buffer
		for i := 0; i < k; i++ {
			fmt.Fprintf(&refs, "$(v%d)", i%32)
		}
		m, err := core.Parse("a1.d2w", defs.String()+"%HTML_INPUT{"+refs.String()+"%}")
		if err != nil {
			b.Fatal(err)
		}
		e := &core.Engine{}
		b.Run(fmt.Sprintf("used=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := e.Run(m, core.ModeInput, nil, &buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA2_ParseCache measures per-request cost with the parsed-macro
// cache off (the faithful re-read-per-process CGI model) and on.
func BenchmarkA2_ParseCache(b *testing.B) {
	req := &cgi.Request{Method: "GET", PathInfo: "/urlquery.d2w/input"}
	for _, cache := range []struct {
		name string
		on   bool
	}{{"Off", false}, {"On", true}} {
		b.Run(cache.name, func(b *testing.B) {
			st, err := experiments.NewStack(experiments.StackConfig{
				DBName: "BENCHA2", Rows: 50, Seed: 1, CacheMacros: cache.on})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := st.App.ServeCGI(req)
				if err != nil || resp.Status != 200 {
					b.Fatalf("status %d err %v", resp.Status, err)
				}
			}
		})
	}
}

// BenchmarkA3_ReportFormats compares the default table format with a
// custom %SQL_REPORT block at 1000 result rows.
func BenchmarkA3_ReportFormats(b *testing.B) {
	db := sqldb.NewDatabase("RESTYLE")
	if err := workload.URLDB(db, 1000, 1); err != nil {
		b.Fatal(err)
	}
	sqldriver.Register("RESTYLE", db)
	b.Cleanup(func() { sqldriver.Unregister("RESTYLE") })
	styles := experiments.Restyles()
	for _, name := range []string{"default-table", "bullet-list"} {
		m, err := core.Parse(name, styles[name])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			eng := &core.Engine{DB: gateway.NewSQLProvider()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := eng.Run(m, core.ModeReport, nil, &buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA5_IndexVsScan measures the sqldb access paths under the macro
// workload's characteristic predicates.
func BenchmarkA5_IndexVsScan(b *testing.B) {
	db := sqldb.NewDatabase("A5BENCH")
	if err := workload.URLDB(db, 10000, 1); err != nil {
		b.Fatal(err)
	}
	if err := workload.URLDBHeap(db); err != nil {
		b.Fatal(err)
	}
	s := sqldb.NewSession(db)
	defer s.Close()
	res, err := s.Exec("SELECT url FROM urldb ORDER BY url")
	if err != nil {
		b.Fatal(err)
	}
	key := res.Rows[5000][0]
	for _, idx := range []struct {
		name, sql string
	}{
		{"IndexScan", "SELECT title FROM urldb WHERE url = ?"},
		{"FullScan", "SELECT title FROM urldb_heap WHERE url = ?"}, // the same rows without the key
	} {
		b.Run(idx.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(idx.sql, key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
