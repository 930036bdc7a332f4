package bench

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/gateway"
	"db2www/internal/obs"
	"db2www/internal/qcache"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden/corpus and testdata/golden/examples from the engine under test")

// goldenDB is the database name every corpus macro selects.
const goldenDB = "CELDIAL"

// goldenSet is one macro directory served over one dataset.
type goldenSet struct {
	dir     string
	dataset string
	cases   []goldenCase
}

// goldenCase is one request; the page it renders is pinned byte for byte
// in testdata/golden/corpus/<name>.html.
type goldenCase struct {
	name  string
	path  string // {macro}/{cmd}
	query string
}

// The corpus: every macro of testdata/macros and benchmark/macros in
// input and report mode. The pages were generated by the engine of the
// commit before the compiled-template row path and must never change
// without a reason stated in the change that regenerates them.
var goldenCorpus = []goldenSet{
	{dir: "testdata/macros", dataset: "urldb:60:1", cases: []goldenCase{
		{"urlquery_input", "urlquery.d2w/input", ""},
		{"urlquery_report", "urlquery.d2w/report", "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"},
		// The form's own submission: $$(hidden_a) round-trips as a
		// reference inside the input value (Section 4.3.2).
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
	{dir: "benchmark/macros/urldb", dataset: "urldb:60:1", cases: []goldenCase{
		{"bench_urlquery_input", "urlquery.d2w/input", ""},
		{"bench_urlquery_report", "urlquery.d2w/report", "SEARCH=ib&USE_TITLE=yes&DBFIELDS=title&DBFIELDS=description"},
		{"bench_detail_input", "detail.d2w/input", ""},
		{"bench_detail_report", "detail.d2w/report", "U=http%3A%2F%2Fwww.ibm1.com%2F"},
		{"bench_detail_report_quote", "detail.d2w/report", "U=it%27s"},
	}},
	{dir: "benchmark/macros/orders", dataset: "orders:8:6:2", cases: []goldenCase{
		{"bench_orders_input", "orders.d2w/input", ""},
		{"bench_orders_products", "orders.d2w/report", "sqlcmd=products&cust_inp=10100&prod_inp=b"},
		{"bench_orders_products_none", "orders.d2w/report", "sqlcmd=products&prod_inp=zzz"},
		{"bench_orders_spend", "orders.d2w/report", "sqlcmd=spend"},
		{"bench_orders_ship", "orders.d2w/report", "sqlcmd=ship&prod_id=3"},
	}},
}

// goldenApp serves one macro directory over a freshly generated dataset,
// with the query cache gatewayd builds by default in front of the engine
// when cached.
func goldenApp(t *testing.T, set goldenSet, cached bool) *gateway.App {
	t.Helper()
	db := sqldb.NewDatabase(goldenDB)
	if err := workload.Load(db, set.dataset); err != nil {
		t.Fatal(err)
	}
	sqldriver.Register(goldenDB, db)
	t.Cleanup(func() { sqldriver.Unregister(goldenDB) })
	var provider core.DBProvider = gateway.NewSQLProvider()
	if cached {
		provider = qcache.Wrap(provider, qcache.New(64<<20))
	}
	return &gateway.App{
		MacroDir:    set.dir,
		Engine:      &core.Engine{DB: provider},
		CacheMacros: true,
	}
}

// goldenCells are the two wirings every page is pinned under: the engine
// alone, and behind the query cache — where the second rendering of a
// read-only report keeps its %ROW block on the cached result and the third
// is served from it.
var goldenCells = []struct {
	name   string
	cached bool
}{{"uncached", false}, {"cached", true}}

// checkGolden compares got with the committed file, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (generate with go test -run TestGolden -update-golden)", err)
	}
	if got != string(want) {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		lo := max(at-60, 0)
		t.Errorf("%s: page differs from golden at byte %d (%d vs %d bytes)\n got: …%q\nwant: …%q",
			file, at, len(got), len(want),
			got[lo:min(at+60, len(got))], want[lo:min(at+60, len(want))])
	}
}

// TestGoldenCorpus pins every page of the corpus, in both cells. A
// read-only request is rendered three times, so the later renderings run on
// the cached (shared) parsed macro and, in the cached cell, on the cached
// result and its memo; the one UPDATE is the last request of its set.
func TestGoldenCorpus(t *testing.T) {
	for _, cell := range goldenCells {
		for _, set := range goldenCorpus {
			app := goldenApp(t, set, cell.cached)
			for _, c := range set.cases {
				renderings := 3
				if strings.Contains(c.query, "sqlcmd=ship") {
					renderings = 1
				}
				for ; renderings > 0; renderings-- {
					resp, err := app.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/" + c.path, QueryString: c.query})
					if err != nil {
						t.Fatalf("%s %s: %v", cell.name, c.name, err)
					}
					page := fmt.Sprintf("status %d\n%s", resp.Status, resp.Body)
					checkGolden(t, filepath.Join("testdata/golden/corpus", c.name+".html"), page)
				}
			}
		}
	}
}

// TestGoldenCorpusOverHTTP pins the cached cell's pages as a client reads
// them from gateway.Handler on a socket: the third rendering of a read-only
// report is served from the memo, and its page leaves as runs — the head,
// the %ROW block the cached result keeps, the tail — which must still make
// the golden page. The one thing a request through the Handler adds is its
// trace ID, which a failed statement's message names; that note is cut
// before the comparison.
func TestGoldenCorpusOverHTTP(t *testing.T) {
	served := 0
	for _, set := range goldenCorpus {
		ring := obs.NewRing(1)
		srv := httptest.NewServer(&gateway.Handler{App: goldenApp(t, set, true), TraceRing: ring})
		for _, c := range set.cases {
			renderings := 3
			if strings.Contains(c.query, "sqlcmd=ship") {
				renderings = 1
			}
			for i := 1; i <= renderings; i++ {
				resp, err := http.Get(srv.URL + "/cgi-bin/db2www/" + c.path + "?" + c.query)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				id := resp.Header.Get("X-Trace-Id")
				page := strings.Replace(string(body), " <SMALL>(trace "+id+")</SMALL>", "", 1)
				checkGolden(t, filepath.Join("testdata/golden/corpus", c.name+".html"),
					fmt.Sprintf("status %d\n%s", resp.StatusCode, page))
				// The record reaches the ring before the chunked page ends.
				if tr := ring.Snapshot()[0]; i == 3 && tr.ID == id {
					for _, e := range tr.SQL {
						if e.Render == "memo" {
							served++
						}
					}
				}
			}
		}
		srv.Close()
	}
	// TestGoldenVarJournal's six Appendix A reports, and the benchmark's
	// urlquery, products and spend reports.
	if served != 9 {
		t.Errorf("%d third renderings served from the memo, want 9", served)
	}
}

// TestGoldenVarJournal pins what the Appendix A report leaves on its
// request record about variables: which were evaluated, how often, how
// deep, and from which source. Per-row scope hits are not recorded, so a
// row path that dereferenced macro variables differently would show here.
// Each request is rendered three times in both cells; a third rendering
// in the cached cell may be served from the memo — its statement's record
// says render=memo — and must leave the same record.
func TestGoldenVarJournal(t *testing.T) {
	served := 0
	for _, cell := range goldenCells {
		app := goldenApp(t, goldenCorpus[0], cell.cached)
		var outs [3]strings.Builder
		for _, c := range goldenCorpus[0].cases {
			if !strings.HasPrefix(c.name, "urlquery_") {
				continue
			}
			for i := range outs {
				tr := obs.NewTrace("golden-" + c.name)
				ctx := obs.WithTrace(context.Background(), tr)
				if _, err := app.ServeCGIContext(ctx, &cgi.Request{Method: "GET", PathInfo: "/" + c.path, QueryString: c.query}); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&outs[i], "%s\n", c.name)
				for _, v := range tr.Vars {
					fmt.Fprintf(&outs[i], "  %-14s count=%d depth=%d source=%s null=%v\n", v.Name, v.Count, v.MaxDepth, v.Source, v.Null)
				}
				for _, e := range tr.SQL {
					switch {
					case e.Render == "":
					case !cell.cached || i < 2:
						t.Errorf("%s %s rendering %d: render=%q", cell.name, c.name, i+1, e.Render)
					default:
						served++
					}
				}
			}
		}
		for i := range outs {
			checkGolden(t, "testdata/golden/corpus/urlquery.vars", outs[i].String())
		}
	}
	// Every report whose query ran is memoable — all but
	// urlquery_report_sqlerror: a row wrapper's column that the report does
	// not select, and that no input or definition answers, is null on every
	// row (D3's $(V3) when only url and title are selected).
	if served != 6 {
		t.Errorf("%d third renderings served from the memo, want 6", served)
	}
}

// TestGoldenExamples pins the standard output of every examples/*
// program: each embeds its macro and drives it in-process, so its output
// is the rendered pages of that macro.
func TestGoldenExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds seven programs")
	}
	dirs, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, main := range dirs {
		name := filepath.Base(filepath.Dir(main))
		cmd := exec.Command("go", "run", "./examples/"+name)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go run ./examples/%s: %v", name, err)
		}
		checkGolden(t, filepath.Join("testdata/golden/examples", name+".txt"), string(out))
	}
}
