package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"db2www/internal/baseline/gsql"
	"db2www/internal/baseline/rawcgi"
	"db2www/internal/baseline/wdb"
	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/gateway"
	"db2www/internal/htmlutil"
	"db2www/internal/macrolint"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

// corpusPage is a page the repository root's TestGoldenCorpus pins byte
// for byte (testdata/golden/corpus, dataset urldb:60:1), without the
// status line that test puts in front of it.
func corpusPage(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(RepoRoot(), "testdata", "golden", "corpus", name+".html"))
	if err != nil {
		t.Fatal(err)
	}
	page, ok := strings.CutPrefix(string(b), "status 200\n")
	if !ok {
		t.Fatalf("%s: the pinned page is not a 200", name)
	}
	return page
}

// runMacro parses src and processes it in one mode.
func runMacro(t *testing.T, e *core.Engine, src string, mode core.Mode, inputs *cgi.Form) string {
	t.Helper()
	m, err := core.Parse("test.d2w", src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(m, mode, inputs, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// reportQuery is the Figure 7 selection as a query string: search "ib" in
// URL and title, the title column in the report.
const reportQuery = "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"

// reportRow is how the Appendix A macro's %ROW block starts a row.
const reportRow = `<LI> <A HREF="`

// figure2Form renders Figure 2 and parses it the way a browser would.
func figure2Form(t *testing.T) (body string, form *htmlutil.Form) {
	t.Helper()
	body, err := RenderFigure2()
	if err != nil {
		t.Fatal(err)
	}
	forms := htmlutil.ParseForms(body)
	if len(forms) != 1 {
		t.Fatalf("parsed %d forms, want 1", len(forms))
	}
	return body, forms[0]
}

// TestE2Figure2Golden reproduces Figure 2: the sample HTML input form,
// generated from a macro in input mode, byte for byte the pinned page, and
// parsed back into the paper's six input variables.
func TestE2Figure2Golden(t *testing.T) {
	body, f := figure2Form(t)
	if body != corpusPage(t, "figure2_input") {
		t.Errorf("generated form diverges from the pinned figure2_input:\n%s", body)
	}
	if f.Method != "POST" || f.Action != "/cgi-bin/db2www.exe/urlquery.d2w/report" {
		t.Errorf("form submits %s %s", f.Method, f.Action)
	}
	var names []string
	for _, c := range f.Controls {
		if c.Name != "" && !slices.Contains(names, c.Name) {
			names = append(names, c.Name)
		}
	}
	if want := []string{"SEARCH", "USE_URL", "USE_TITLE", "USE_DESC", "DBFIELD", "SHOWSQL"}; !slices.Equal(names, want) {
		t.Errorf("input variables %v, want the paper's %v", names, want)
	}
}

// TestE3Figure3Variables reproduces Figure 3 and the Section 2.2
// variable-passing example: the exact name=value pairs the Web client
// sends for the user's selections. USE_DESC is absent: an unchecked
// checkbox is not a successful control, and the engine treats absent and
// null-string variables identically.
func TestE3Figure3Variables(t *testing.T) {
	_, f := figure2Form(t)
	// Figure 3 selections: SEARCH left empty, URL+Title stay checked,
	// DBFIELD = {title, desc}, SHOWSQL stays No.
	if err := f.SelectOptions("DBFIELD", "title", "desc"); err != nil {
		t.Fatal(err)
	}
	sub := f.Submission()
	want := []cgi.Pair{
		{Name: "SEARCH", Value: ""},
		{Name: "USE_URL", Value: "yes"},
		{Name: "USE_TITLE", Value: "yes"},
		{Name: "DBFIELD", Value: "title"},
		{Name: "DBFIELD", Value: "desc"},
		{Name: "SHOWSQL", Value: ""},
	}
	if got := sub.Pairs(); !slices.Equal(got, want) {
		t.Errorf("pairs %+v, want the paper's Section 2.2 listing %+v", got, want)
	}
	if got, want := sub.Encode(), "SEARCH=&USE_URL=yes&USE_TITLE=yes&DBFIELD=title&DBFIELD=desc&SHOWSQL="; got != want {
		t.Errorf("QUERY_STRING %q, want %q", got, want)
	}
}

// figure4Requests are the two invocation flows of Figure 4.
func figure4Requests() (get, post *cgi.Request) {
	get = &cgi.Request{Method: "GET", ScriptName: "/cgi-bin/db2www",
		PathInfo: "/urlquery.d2w/report", QueryString: reportQuery}
	post = &cgi.Request{Method: "POST", ScriptName: "/cgi-bin/db2www",
		PathInfo: "/urlquery.d2w/report", ContentType: cgi.FormEncoded, Body: reportQuery}
	return get, post
}

// TestE4CGIFlowsInProcess reproduces Figure 4's data flow in process: the
// inputs arrive in QUERY_STRING (GET) or on stdin (POST) and yield the
// same page, the one TestGoldenCorpus pins.
func TestE4CGIFlowsInProcess(t *testing.T) {
	st, err := NewStack(StackConfig{Rows: 60, Seed: 1, CacheMacros: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	get, post := figure4Requests()
	want := corpusPage(t, "urlquery_report")
	for _, req := range []*cgi.Request{get, post} {
		resp, err := st.App.ServeCGI(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || resp.Body.String() != want {
			t.Errorf("%s flow: status %d, page differs from the pinned urlquery_report:\n%s", req.Method, resp.Status, resp.Body)
		}
	}
}

// TestE4SubprocessFlow is Figure 4 as drawn: a fresh db2www process per
// request, configured through its environment, yields the in-process
// page on both flows; and what gatewayd -cgi hands that environment
// (-maxrows here) reaches the page.
func TestE4SubprocessFlow(t *testing.T) {
	skipIfShort(t)
	bin := buildCmd(t, "db2www")
	want := corpusPage(t, "urlquery_report")
	env := []string{"DB2WWW_MACRO_DIR=" + corpusMacros(), "DB2WWW_DATASET=urldb:60:1"}
	get, post := figure4Requests()
	for _, req := range []*cgi.Request{get, post} {
		resp, err := cgi.InvokeProcess(bin, nil, req, env, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || resp.Body.String() != want {
			t.Errorf("%s subprocess flow: status %d, page differs from the in-process page:\n%s", req.Method, resp.Status, resp.Body)
		}
	}

	cfg := GatewaydConfig(corpusMacros(), 60, 1)
	cfg.CGI, cfg.MaxRows = bin, 2
	srv, err := gateway.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	page, err := browser(srv.Handler()).Get("http://server/cgi-bin/db2www/urlquery.d2w/report?" + reportQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rows, uncapped := strings.Count(page.Body, reportRow), strings.Count(want, reportRow); page.Status != 200 || rows != 2 || uncapped <= 2 {
		t.Errorf("gatewayd -cgi -maxrows 2: status %d, %d rows on the page (%d uncapped)", page.Status, rows, uncapped)
	}
}

// TestE5MacroPipeline reproduces Figure 5's development workflow on the
// Appendix A macro: it lints without errors (the taint analyzer
// deliberately warns about its DEFINE chains), and its variables and SQL
// section can be pulled out for external tools.
func TestE5MacroPipeline(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(corpusMacros(), "urlquery.d2w"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Parse("urlquery.d2w", string(src))
	if err != nil {
		t.Fatal(err)
	}
	diags := macrolint.New().LintMacro(m, "urlquery.d2w")
	if errs, warns, _ := macrolint.Counts(diags); errs != 0 || warns != 2 {
		t.Errorf("urlquery.d2w lints with %d errors and %d warnings, want 0 and the 2 taint warnings: %v", errs, warns, diags)
	}
	if defined, referenced := core.Variables(m); len(defined) != 10 || len(referenced) != 11 {
		t.Errorf("%d variables defined, %d referenced, want 10 and 11", len(defined), len(referenced))
	}
	sqls := m.SQLSections()
	if len(m.Sections) != 6 || len(sqls) != 1 {
		t.Fatalf("%d sections, %d of them SQL, want 6 and 1", len(m.Sections), len(sqls))
	}
	if got, want := strings.Join(strings.Fields(sqls[0].Command), " "),
		"SELECT url $(FIELDLIST) FROM $(dbtbl) $(WHERELIST) ORDER BY title"; got != want {
		t.Errorf("extracted SQL %q, want %q", got, want)
	}
}

// lazyMacro is the Section 4.3.1 worked example, verbatim.
const lazyMacro = `
%define X = "One$(Y)$(Z)"
%define Y = " Two"
%HTML_INPUT{$(X)%}
%define Z = " Three"
%HTML_REPORT{$(X)%}
`

// TestE6RuntimeModes reproduces Figure 6: the same macro processed in
// input mode (Z not yet defined) and report mode (Z defined earlier), and
// an HTML input variable overriding a DEFINE default (Section 4.3).
func TestE6RuntimeModes(t *testing.T) {
	override := cgi.NewForm()
	override.Add("Y", " Client")
	for _, c := range []struct {
		mode   core.Mode
		inputs *cgi.Form
		want   string
	}{
		{core.ModeInput, nil, "One Two"},
		{core.ModeReport, nil, "One Two Three"},
		{core.ModeInput, override, "One Client"},
	} {
		if got := strings.TrimSpace(runMacro(t, &core.Engine{}, lazyMacro, c.mode, c.inputs)); got != c.want {
			t.Errorf("%s mode, inputs %v: $(X) = %q, want %q", c.mode, c.inputs, got, c.want)
		}
	}
}

// TestE7AppendixAGolden reproduces Figures 7 and 8: a browser fetches the
// Appendix A form over HTTP, submits it as it stands, and reads the
// report — both pages byte for byte the pinned ones, the report listing
// the URLs that match "ib" with the conditional Title column, the form
// carrying the $$(hidden_a) escape the report resolves.
func TestE7AppendixAGolden(t *testing.T) {
	st, err := NewStack(StackConfig{Rows: 60, Seed: 1, CacheMacros: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	input, err := st.Client().Get("http://gateway/cgi-bin/db2www/urlquery.d2w/input")
	if err != nil {
		t.Fatal(err)
	}
	form, err := input.Form(0)
	if err != nil {
		t.Fatal(err)
	}
	report, err := input.Submit(form)
	if err != nil {
		t.Fatal(err)
	}
	if input.Status != 200 || input.Body != corpusPage(t, "urlquery_input") {
		t.Errorf("input page: status %d, diverges from the pinned urlquery_input:\n%s", input.Status, input.Body)
	}
	if report.Status != 200 || report.Body != corpusPage(t, "urlquery_report") {
		t.Errorf("report page: status %d, diverges from the pinned urlquery_report:\n%s", report.Status, report.Body)
	}
	if !strings.Contains(input.Body, `VALUE="$(hidden_a)"`) {
		t.Error("the $$(hidden_a) escape is not visible in the form")
	}
	if rows, titled := strings.Count(report.Body, reportRow), strings.Count(report.Body, "<br>"); rows != 4 || titled != 4 {
		t.Errorf("%d hyperlinked rows, %d conditional Title columns (D2), want the 4 URLs matching \"ib\" with a title each", rows, titled)
	}
}

const whereMacro = `
%define{
%list " AND " where_list
where_list = ? "custid = $(cust_inp)"
where_list = ? "product_name LIKE '$(prod_inp)%'"
where_clause = ? "WHERE $(where_list)"
%}
%HTML_INPUT{$(where_list)|$(where_clause)%}
`

// TestE8WhereClause reproduces the Section 3.1.3 worked example: the four
// input combinations and the exact strings the paper derives.
func TestE8WhereClause(t *testing.T) {
	for _, c := range []struct{ cust, prod, whereList, whereClause string }{
		{"10100", "bikes",
			"custid = 10100 AND product_name LIKE 'bikes%'",
			"WHERE custid = 10100 AND product_name LIKE 'bikes%'"},
		{"", "bikes",
			"product_name LIKE 'bikes%'",
			"WHERE product_name LIKE 'bikes%'"},
		{"10100", "",
			"custid = 10100",
			"WHERE custid = 10100"},
		{"", "", "", ""},
	} {
		in := cgi.NewForm()
		in.Add("cust_inp", c.cust)
		in.Add("prod_inp", c.prod)
		got := strings.TrimSpace(runMacro(t, &core.Engine{}, whereMacro, core.ModeInput, in))
		if want := c.whereList + "|" + c.whereClause; got != want {
			t.Errorf("cust=%q prod=%q: where_list|where_clause = %q, want %q", c.cust, c.prod, got, want)
		}
	}
}

// txnMacro updates three times; the second statement violates the primary key.
const txnMacro = `
%define DATABASE = "TXNDB"
%SQL{INSERT INTO t VALUES (100, 'first')%}
%SQL{INSERT INTO t VALUES (1, 'duplicate pk')%}
%SQL{INSERT INTO t VALUES (101, 'third')%}
%HTML_REPORT{%EXEC_SQL done%}
`

// TestE9TransactionModes reproduces the Section 5 transaction modes: the
// same failing macro under auto-commit (statements 1 and 3 commit, 2
// fails alone) and as a single transaction (the failure rolls the whole
// macro back).
func TestE9TransactionModes(t *testing.T) {
	for _, c := range []struct {
		name string
		mode core.TxnMode
		want int64
	}{{"auto-commit", core.TxnAutoCommit, 3}, {"single transaction", core.TxnSingle, 1}} {
		db := sqldb.NewDatabase("TXNDB")
		s := sqldb.NewSession(db)
		if _, err := s.ExecScript(
			"CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(20)); INSERT INTO t VALUES (1, 'seed')"); err != nil {
			t.Fatal(err)
		}
		sqldriver.Register("TXNDB", db)
		runMacro(t, &core.Engine{DB: gateway.NewSQLProvider(), Txn: c.mode}, txnMacro, core.ModeReport, nil)
		sqldriver.Unregister("TXNDB")
		res, err := s.Exec("SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].I; got != c.want {
			t.Errorf("%s left %d rows, want %d", c.name, got, c.want)
		}
	}
}

// gsqlProc is the URL query application in GSQL's proc-file language.
const gsqlProc = `
HEADING "URL Query (GSQL)"
TEXT "Enter a search string."
INPUT SEARCH text
DATABASE BASEDB
SQL SELECT url, title FROM urldb WHERE title LIKE '%$SEARCH%' ORDER BY title
FIELDS url title
`

// TestE10Baselines reproduces the Section 6 related-work comparison: the
// same URL query on DB2WWW, GSQL, WDB and hand-coded CGI. Every system
// answers the request with the matching rows; what the developer authors
// for it is smallest where the system is most restrictive and largest —
// and in another language than the artefacts — for raw CGI.
func TestE10Baselines(t *testing.T) {
	db := sqldb.NewDatabase("BASEDB")
	if err := workload.URLDB(db, 60, 1); err != nil {
		t.Fatal(err)
	}
	sqldriver.Register("BASEDB", db)
	defer sqldriver.Unregister("BASEDB")

	// DB2WWW: the Appendix A macro, retargeted at BASEDB.
	macroSrc, err := os.ReadFile(filepath.Join(corpusMacros(), "urlquery.d2w"))
	if err != nil {
		t.Fatal(err)
	}
	macroText := strings.Replace(string(macroSrc), `DATABASE = "CELDIAL"`, `DATABASE = "BASEDB"`, 1)
	macroDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(macroDir, "urlquery.d2w"), []byte(macroText), 0o644); err != nil {
		t.Fatal(err)
	}
	proc, err := gsql.ParseProc(gsqlProc)
	if err != nil {
		t.Fatal(err)
	}
	fdf, err := wdb.GenerateFDF("BASEDB", "urldb")
	if err != nil {
		t.Fatal(err)
	}
	rawSource, err := os.ReadFile(filepath.Join(RepoRoot(), "internal", "baseline", "rawcgi", "rawcgi.go"))
	if err != nil {
		t.Fatal(err)
	}

	// The rows every system must list and the rows none may, from the
	// engine itself: WDB's generated form can only ask for a prefix, the
	// other three search for a substring.
	urls := func(where string) []string {
		res, err := sqldb.NewSession(db).Exec("SELECT url FROM urldb WHERE " + where)
		if err != nil || len(res.Rows) == 0 {
			t.Fatalf("no row of the dataset has %s: %v", where, err)
		}
		var out []string
		for _, row := range res.Rows {
			out = append(out, row[0].S)
		}
		return out
	}
	matching, others := urls("title LIKE 'Guide%'"), urls("title NOT LIKE '%Guide%'")
	lines := map[string]int{}
	for _, sys := range []struct {
		name     string
		handler  cgi.Handler
		artifact string // what the developer maintains
	}{
		{"DB2WWW", &gateway.App{MacroDir: macroDir, Engine: &core.Engine{DB: gateway.NewSQLProvider()}, CacheMacros: true}, macroText},
		{"GSQL", &gsql.App{Proc: proc}, gsqlProc},
		{"WDB", &wdb.App{FDF: fdf}, fdf.Marshal()},
		{"raw CGI", &rawcgi.App{Database: "BASEDB"}, string(rawSource)},
	} {
		// SEARCH is the form variable of the macro, the proc file and the
		// hand-written program; WDB's generated form names its fields
		// after the columns.
		resp, err := sys.handler.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/urlquery.d2w/report",
			QueryString: "SEARCH=Guide&USE_TITLE=yes&DBFIELDS=title&title=Guide"})
		if err != nil || resp.Status != 200 {
			t.Fatalf("%s: status %d, %v", sys.name, resp.Status, err)
		}
		for _, u := range matching {
			if !strings.Contains(resp.Body.String(), u) {
				t.Errorf("%s: the page lacks %s", sys.name, u)
			}
		}
		for _, u := range others {
			if strings.Contains(resp.Body.String(), u) {
				t.Errorf("%s: the page lists %s, whose title does not match", sys.name, u)
			}
		}
		lines[sys.name] = strings.Count(sys.artifact, "\n") + 1
	}
	if !(lines["GSQL"] < lines["WDB"] && lines["WDB"] < lines["DB2WWW"] && lines["DB2WWW"] < lines["raw CGI"]) {
		t.Errorf("artifact lines %v, want GSQL < WDB < DB2WWW < raw CGI", lines)
	}
}

// TestE11Restyle reproduces the restyling claim of Section 7: swapping
// the %SQL_REPORT block changes the page but not the SQL command.
func TestE11Restyle(t *testing.T) {
	db := sqldb.NewDatabase("RESTYLE")
	if err := workload.URLDB(db, 10, 5); err != nil {
		t.Fatal(err)
	}
	sqldriver.Register("RESTYLE", db)
	defer sqldriver.Unregister("RESTYLE")

	styles := Restyles()
	pages := map[string]bool{}
	for name, marks := range map[string][]string{
		"default-table": {"<TABLE BORDER=1>", "<TH>url</TH>"},
		"bullet-list":   {"<UL>", "<LI><A HREF="},
		"html3-table":   {"CELLPADDING=4", "<CAPTION>URL catalogue (url, title)</CAPTION>", "<TD>10</TD>", "<P>10 rows.</P>"},
	} {
		m, err := core.Parse(name+".d2w", styles[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := strings.Join(strings.Fields(m.SQLSections()[0].Command), " "),
			"SELECT url, title FROM urldb ORDER BY title"; got != want {
			t.Errorf("%s: SQL command %q, want %q in every style", name, got, want)
		}
		body := runMacro(t, &core.Engine{DB: gateway.NewSQLProvider()}, styles[name], core.ModeReport, nil)
		for _, mark := range marks {
			if !strings.Contains(body, mark) {
				t.Errorf("%s: page lacks %q:\n%s", name, mark, body)
			}
		}
		if rows := strings.Count(body, "http://"); rows < 10 {
			t.Errorf("%s: %d of the 10 rows on the page", name, rows)
		}
		pages[body] = true
	}
	if len(pages) != 3 {
		t.Errorf("%d distinct pages from 3 styles", len(pages))
	}
}
