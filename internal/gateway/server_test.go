package gateway

import (
	"context"
	"encoding/json"
	"html"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"db2www/internal/obs"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
)

const smokeReport = "/cgi-bin/db2www/urlquery.d2w/report?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"

// smokeConfig is the command line of CI's observability smoke step:
//
//	gatewayd -macros ./testdata/macros -lint strict -slow-threshold 1ms
//	  -flight-sample 1
func smokeConfig(t *testing.T) ServerConfig {
	cfg := DefaultServerConfig()
	cfg.Macros = filepath.Join(repoRoot(t), "testdata", "macros")
	cfg.Lint = "strict"
	cfg.SlowThreshold = time.Millisecond
	cfg.FlightSample = 1
	return cfg
}

func get(t *testing.T, h http.Handler, target string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "http://localhost"+target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", target, rec.Code, rec.Body)
	}
	if rec.Body.Len() == 0 {
		t.Fatalf("GET %s: empty body", target)
	}
	return rec.Body.String()
}

func wantAll(t *testing.T, what, body string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(body, want) {
			t.Errorf("%s lacks %q", what, want)
		}
	}
}

// TestServerSurfaces is what CI's observability smoke step used to grep
// out of a running binary, assertion for assertion, against the server
// gatewayd builds from the step's command line: every series, status
// section, JSON key and endpoint an operator's dashboards and runbooks
// name.
func TestServerSurfaces(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.SlowThreshold = time.Nanosecond // the step's 1ms, made certain: every request is slow
	cfg.FlightSample = 0
	cfg.FlightDir = t.TempDir()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	get(t, h, smokeReport)
	get(t, h, smokeReport)

	metrics := get(t, h, "/metrics")
	wantAll(t, "/metrics", metrics,
		`db2www_http_requests_total{code="200"}`,
		"db2www_sql_exec_seconds_bucket",
		"db2www_qcache_misses_total",
		"db2www_qcache_hits_total",
		"db2www_qcache_refused_total",
		"db2www_macrolint_findings_total",
		`db2www_macrolint_findings_total{analyzer="schema"`,
		`db2www_macrolint_findings_total{analyzer="sqltype"`,
		`db2www_macrolint_findings_total{analyzer="sqlperf"`,
		"db2www_slo_burn_rate",
		"go_goroutines",
		"db2www_build_info",
		"db2www_sqldb_txn_total",
		"db2www_sqldb_stmt_",
		"db2www_sqldb_version_chain_length",
		"db2www_sqldb_plan_cache_hits",
		"db2www_sqldb_plan_cache_misses")
	for _, gone := range []string{"db2www_qcache_expirations_total", "db2www_history_"} {
		if strings.Contains(metrics, gone) {
			t.Errorf("/metrics still has %s", gone)
		}
	}
	// The cache is part of the default wiring: the second report was a hit.
	if st := srv.QCache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("two identical reports: query cache %+v, want 1 miss then 1 hit", st)
	}
	wantAll(t, "/debug/statements", get(t, h, "/debug/statements"), `"digest"`, `"tracked"`, `"plan_cache"`)
	wantAll(t, "/debug/flight", get(t, h, "/debug/flight"), `"trace_id"`, `"decision"`)

	status := get(t, h, "/server-status")
	// The counters are the process's, which earlier servers of this test
	// binary fed too; the step greps the same line off the real binary.
	if !regexp.MustCompile(`(?m)^<LI>db2www_qcache_hits_total: [1-9]`).MatchString(status) {
		t.Errorf("/server-status shows no query-cache hit")
	}
	wantAll(t, "/server-status", status, "<LI>db2www_qcache_entries: ",
		`<LI>db2www_macro_cache_hits: `, `<LI>db2www_sqldb_txn_commit_seq: `, `<LI>db2www_build_info{`,
		`<LI>db2www_slo_requests{macro="urlquery.d2w",window="5m"}: 2`+"\n")
	// The whole page in order.
	var titles []string
	for _, m := range regexp.MustCompile(`<H2>([^<]*)</H2>`).FindAllStringSubmatch(status, -1) {
		titles = append(titles, m[1])
	}
	if got, want := strings.Join(titles, " | "), "Requests | Build info | SLO burn rates | Macro cache | "+
		"Macro lint | Transactions | Statements | Planner | Storage | Query cache | "+
		"Flight recorder | Runtime | Recent traces"; got != want {
		t.Errorf("/server-status sections:\n got %s\nwant %s", got, want)
	}

	wantAll(t, "/healthz", get(t, h, "/healthz"), `"status":"ok"`)
	wantAll(t, "/readyz", get(t, h, "/readyz"), `"status": "ok"`, `"no-5xx-burst"`)
	// The server keeps no time series: a scraper of /metrics does.
	for _, gone := range []string{"/debug/history", "/debug/dash"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "http://localhost"+gone, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", gone, rec.Code)
		}
	}

	// -slow-threshold: a request over it is kept whatever -flight-sample
	// says, in /debug/flight and as one line of -flight-dir's flight.jsonl.
	req := httptest.NewRequest("GET", "http://localhost"+smokeReport, nil)
	req.Header.Set("X-Trace-Id", "slow1")
	h.ServeHTTP(httptest.NewRecorder(), req)
	wantAll(t, "/debug/flight?trace=slow1", get(t, h, "/debug/flight?trace=slow1"),
		`"decision": "kept:slow"`, `"status": 200`, `"name": "sql-exec:(unnamed)"`, `"sql": "SELECT url , title FROM urldb`)
	lines, err := os.ReadFile(filepath.Join(cfg.FlightDir, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(lines), `"trace_id":"slow1"`); n != 1 || strings.Contains(string(lines), `"decision":"kept:sampled"`) {
		t.Errorf("flight.jsonl: %d line(s) of trace slow1, want 1, and every line kept:slow:\n%s", n, lines)
	}
	wantAll(t, "/metrics", get(t, h, "/metrics"), `db2www_flight_kept_total{reason="slow"}`)
	var banner strings.Builder
	srv.WriteBanner(&banner)
	wantAll(t, "banner", banner.String(),
		"gatewayd: lint preflight (-lint strict): 3 macro(s), 0 error(s), 2 warning(s)\n",
		"gatewayd: serving macros from "+cfg.Macros+" on :8080\n",
		"gatewayd: flight records at /debug/flight (sample 0, slow >= 1ns)\n",
		"gatewayd: try http://localhost:8080/cgi-bin/db2www/urlquery.d2w/input\n")
}

// TestReadyzFollowsThe5xxBurst: ten 5xx inside ten seconds, the burst the
// flight recorder captures a profile for, take the server out of
// rotation, and it is ready again once the burst has left the window. The
// recorder's clock drives it, not sleeping; the capture fires once.
func TestReadyzFollowsThe5xxBurst(t *testing.T) {
	macros := t.TempDir()
	if err := os.WriteFile(filepath.Join(macros, "loop.d2w"), []byte(`%INCLUDE "loop.d2w"`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultServerConfig()
	cfg.Macros, cfg.Lint = macros, "off" // the preflight would refuse the cycle
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	now := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	var captures []string
	srv.Flight.TestHookAnomaly(func() time.Time { return now },
		func(reason string, _ time.Time) { captures = append(captures, reason) })
	h := srv.Handler()
	readyz := func(when string, wantCode int, wantErr string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "http://localhost/readyz", nil))
		var body struct{ Checks []checkResult }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: /readyz %q: %v", when, rec.Body, err)
		}
		i := slices.IndexFunc(body.Checks, func(c checkResult) bool { return c.Name == "no-5xx-burst" })
		if rec.Code != wantCode || i < 0 || body.Checks[i].Error != wantErr {
			t.Fatalf("%s: /readyz %d %s, want %d with no-5xx-burst error %q", when, rec.Code, rec.Body, wantCode, wantErr)
		}
	}
	fail := func() {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "http://localhost/cgi-bin/db2www/loop.d2w/input", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("the include cycle answered %d, want 500", rec.Code)
		}
	}

	for i := 0; i < 9; i++ {
		fail()
		now = now.Add(time.Second)
	}
	readyz("after nine 5xx", http.StatusOK, "")
	fail() // the tenth, 9 s after the first
	readyz("after ten 5xx in 10 s", http.StatusServiceUnavailable, "5xx-burst:10-in-10s")
	now = now.Add(time.Second - time.Nanosecond)
	readyz("while the first is inside the window", http.StatusServiceUnavailable, "5xx-burst:10-in-10s")
	now = now.Add(time.Nanosecond)
	readyz("once the first has left the window", http.StatusOK, "")
	if len(captures) != 1 {
		t.Errorf("anomaly captures %q, want one for the burst", captures)
	}
}

// TestServerCloseLeavesNothing builds, serves from and closes the server
// three times in one process: every goroutine NewServer started is gone
// when Close returns, the database name is free for the next server, and
// Close is idempotent.
func TestServerCloseLeavesNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		cfg := smokeConfig(t)
		cfg.AccessLog = filepath.Join(t.TempDir(), "access.log")
		cfg.FlightDir = t.TempDir()
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		if db, ok := sqldriver.Lookup(cfg.Database); !ok || db != srv.DB {
			t.Fatalf("server %d: %s is not this server's database", i, cfg.Database)
		}
		get(t, srv.Handler(), smokeReport)
		if line, err := os.ReadFile(cfg.AccessLog); err != nil || !strings.Contains(string(line), "urlquery.d2w/report") {
			t.Errorf("server %d: access log %q, %v", i, line, err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("server %d: Close: %v", i, err)
		}
		if err := srv.Close(); err != nil { // a no-op: closing a file twice would be an error
			t.Errorf("server %d: second Close: %v", i, err)
		}
		if _, ok := sqldriver.Lookup(cfg.Database); ok {
			t.Errorf("server %d: %s still registered after Close", i, cfg.Database)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d when Close of server %d returned:\n%s", baseline, n, i, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestNewServerFailureLeavesNothing: a constructor that fails half-way
// (here at the lint preflight, after the database was registered and the
// vacuum loop started) undoes what it had done.
func TestNewServerFailureLeavesNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := DefaultServerConfig()
	cfg.Macros = filepath.Join(t.TempDir(), "no-such-dir")
	if srv, err := NewServer(cfg); err == nil {
		srv.Close()
		t.Fatal("NewServer over a missing macro directory succeeded")
	} else if !strings.Contains(err.Error(), "lint preflight of") {
		t.Fatalf("err = %v", err)
	}
	if _, ok := sqldriver.Lookup(cfg.Database); ok {
		t.Errorf("%s still registered after a failed NewServer", cfg.Database)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines before, %d after a failed NewServer", baseline, n)
	}
}

// TestServerConfigValidate: a value the server would silently serve as
// something else is refused, before any database is loaded.
func TestServerConfigValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*ServerConfig)
		want string // "" = valid
	}{
		{"defaults", func(*ServerConfig) {}, ""},
		{"txn single", func(c *ServerConfig) { c.Txn = "single" }, ""},
		{"txn typo", func(c *ServerConfig) { c.Txn = "sinlge" }, `-txn wants auto or single, got "sinlge"`},
		{"txn empty", func(c *ServerConfig) { c.Txn = "" }, `-txn wants auto or single, got ""`},
		{"lint typo", func(c *ServerConfig) { c.Lint = "strcit" }, `-lint wants off, warn, or strict, got "strcit"`},
		{"log format", func(c *ServerConfig) { c.AccessLogFormat = "xml" }, `-access-log-format wants clf or json, got "xml"`},
		{"auth without colon", func(c *ServerConfig) { c.Auth = "admin" }, "-auth wants user:password"},
		{"auth", func(c *ServerConfig) { c.Auth = "admin:secret" }, ""},
		{"cgi", func(c *ServerConfig) { c.CGI = "./db2www" }, ""},
		{"cgi with load", func(c *ServerConfig) { c.CGI, c.Load = "./db2www", "dump.sql" },
			`-load and -save want the in-process database, got -cgi "./db2www"`},
		{"cgi with save", func(c *ServerConfig) { c.CGI, c.Save = "./db2www", "out.sql" },
			`-load and -save want the in-process database, got -cgi "./db2www"`},
		{"load and save in process", func(c *ServerConfig) { c.Load, c.Save = "dump.sql", "out.sql" }, ""},
	} {
		cfg := DefaultServerConfig()
		c.edit(&cfg)
		err := cfg.validate()
		if got := errString(err); got != c.want {
			t.Errorf("%s: validate() = %q, want %q", c.name, got, c.want)
		}
		if c.want == "" {
			continue
		}
		// NewServer refuses before it touches anything: the dataset below
		// would fail to load, and is never reached.
		cfg.Dataset = "no-such-dataset"
		if _, err := NewServer(cfg); errString(err) != c.want {
			t.Errorf("%s: NewServer = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestCGIEnv: everything of the command line that cmd/db2www reads from
// its environment reaches a -cgi subprocess; a value left out would be
// served as its default.
func TestCGIEnv(t *testing.T) {
	base := []string{"DB2WWW_MACRO_DIR=./macros", "DB2WWW_DATABASE=CELDIAL", "DB2WWW_DATASET=urldb"}
	for _, c := range []struct {
		txn     string
		maxRows int
		want    []string
	}{
		{"auto", 0, nil},
		{"single", 0, []string{"DB2WWW_TXN=single"}},
		{"auto", 50, []string{"DB2WWW_MAXROWS=50"}},
		{"single", 50, []string{"DB2WWW_TXN=single", "DB2WWW_MAXROWS=50"}},
	} {
		cfg := DefaultServerConfig()
		cfg.Txn, cfg.MaxRows = c.txn, c.maxRows
		if got, want := cfg.cgiEnv(), append(base[:len(base):len(base)], c.want...); !slices.Equal(got, want) {
			t.Errorf("-txn %s -maxrows %d: cgiEnv() = %q, want %q", c.txn, c.maxRows, got, want)
		}
	}
}

// TestServerWithoutQueryCache: the cache is on by default and two
// configurations build none — -cgi, whose database lives in each request's
// subprocess, and -qcache-bytes 0. Both start and serve, and their
// requests move nothing in the "Query cache" section.
func TestServerWithoutQueryCache(t *testing.T) {
	script := filepath.Join(t.TempDir(), "db2www")
	if err := os.WriteFile(script, []byte("#!/bin/sh\nprintf 'Content-Type: text/html\\r\\n\\r\\n<P>from the subprocess</P>'\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(*ServerConfig)
		want string // on the report page
	}{
		{"-cgi", func(c *ServerConfig) { c.CGI = script }, "<P>from the subprocess</P>"},
		{"-qcache-bytes 0", func(c *ServerConfig) { c.QCacheBytes = 0 }, "<TITLE>"},
	} {
		cfg := DefaultServerConfig()
		cfg.Macros = filepath.Join(repoRoot(t), "testdata", "macros")
		c.edit(&cfg)
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if srv.QCache != nil {
			t.Errorf("%s: a query cache was built", c.name)
		}
		before := sectionRows(t, get(t, srv.Handler(), "/server-status"), "Query cache")
		for i := 0; i < 2; i++ {
			wantAll(t, c.name+" report", get(t, srv.Handler(), smokeReport), c.want)
		}
		if after := sectionRows(t, get(t, srv.Handler(), "/server-status"), "Query cache"); after != before {
			t.Errorf("%s: the reports moved the Query cache section:\n%s\nto\n%s", c.name, before, after)
		}
		srv.Close()
	}
}

// sectionRows returns the rows of one section of a /server-status page.
func sectionRows(t *testing.T, page, title string) string {
	t.Helper()
	_, rest, ok := strings.Cut(page, "<H2>"+title+"</H2>\n")
	if !ok {
		t.Fatalf("/server-status has no %s section:\n%s", title, page)
	}
	rows, _, _ := strings.Cut(rest, "</UL>")
	return rows
}

// statusRows reads a /server-status page back: series → value, and the
// section each series is listed in.
func statusRows(page string) (values, sections map[string]string) {
	values, sections = map[string]string{}, map[string]string{}
	title := ""
	for _, line := range strings.Split(page, "\n") {
		if t, ok := strings.CutPrefix(line, "<H2>"); ok {
			title = strings.TrimSuffix(t, "</H2>")
		} else if row, ok := strings.CutPrefix(line, "<LI>"); ok && title != "Recent traces" {
			i := strings.LastIndex(row, ": ")
			series := html.UnescapeString(row[:i])
			if _, dup := values[series]; dup {
				sections[series] += ", " + title
			} else {
				sections[series] = title
			}
			values[series] = row[i+2:]
		}
	}
	return values, sections
}

// TestStatusPageIsTheRegistry: /server-status is /metrics grouped by
// subsystem. Read with no traffic between them, every row of the page
// names a series /metrics carries, with the value /metrics gives it — a
// row whose value moved by itself between two page reads (the runtime's,
// or the vacuum loop's tick) only has to be there — and every family of
// the registry is listed, once, in one section.
func TestStatusPageIsTheRegistry(t *testing.T) {
	cfg := smokeConfig(t)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	get(t, h, smokeReport)
	get(t, h, smokeReport)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "http://localhost/cgi-bin/db2www/nosuch.d2w/input", nil))

	families := obs.Default.FullSnapshot()
	page, metrics, again := get(t, h, "/server-status"), get(t, h, "/metrics"), get(t, h, "/server-status")
	exposed := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(metrics), "\n") {
		if i := strings.LastIndexByte(line, ' '); !strings.HasPrefix(line, "#") {
			exposed[line[:i]] = line[i+1:]
		}
	}
	values, sections := statusRows(page)
	valuesAgain, _ := statusRows(again)
	for series, v := range values {
		m, ok := exposed[series]
		if !ok {
			t.Errorf("%s (%s) is not a series of /metrics", series, sections[series])
			continue
		}
		pv, _ := strconv.ParseFloat(v, 64)
		mv, err := strconv.ParseFloat(m, 64)
		if err != nil || pv != mv && valuesAgain[series] == v && sections[series] != "Runtime" {
			t.Errorf("%s: /server-status %s, /metrics %s", series, v, m)
		}
	}
	listed := map[string]string{}
	for _, f := range families {
		series := f.Name + f.Labels
		if f.Kind == "histogram" {
			series = f.Name + "_count" + f.Labels
		}
		sec, ok := sections[series]
		if !ok {
			t.Errorf("%s is not on /server-status", series)
		} else if prev, seen := listed[f.Name]; strings.Contains(sec, ",") || seen && prev != sec {
			t.Errorf("family %s is listed under %s and %s", f.Name, prev, sec)
		}
		listed[f.Name] = sec
	}
	if len(values) < 100 || len(listed) < 50 {
		t.Errorf("the page lists %d series of %d families", len(values), len(listed))
	}
}

// TestStatusPageEscapes: a label value can come from the request — here
// the macro name of a URL, which the SLO series carry — and the page shows
// it as text, not as markup.
func TestStatusPageEscapes(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Macros = filepath.Join(repoRoot(t), "testdata", "macros")
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "http://localhost/cgi-bin/db2www/<b>x</b>.d2w/input", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
	page := get(t, h, "/server-status")
	wantAll(t, "/server-status", page, `<LI>db2www_slo_requests{macro="&lt;b&gt;x&lt;/b&gt;.d2w",window="5m"}: 1`+"\n")
	if strings.Contains(page, "<b>") {
		t.Errorf("/server-status carries the client's markup:\n%s", page)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// twoStatements runs a write that succeeds, then a query that cannot: in
// -txn single the failure finds a transaction open.
const twoStatements = `%define{
DATABASE = "CELDIAL"
%}
%SQL(first){
UPDATE urldb SET title = 'touched' WHERE url = 'http://none/'
%}
%SQL(second){
SELECT nosuch FROM urldb
%}
%HTML_INPUT{<P>a form, no SQL</P>%}
%HTML_REPORT{%EXEC_SQL(first)%EXEC_SQL(second)%}
`

// TestRequestsLeaveNoSnapshot: a connection is an engine session with no
// pool behind it, so whatever a request opened it has closed when the
// response is written — no snapshot stays registered after a report whose
// second statement fails, a request whose client is already gone, a cache
// hit, or a page that never connects, in either transaction mode, with
// the query cache and without.
func TestRequestsLeaveNoSnapshot(t *testing.T) {
	macros := t.TempDir()
	src, err := os.ReadFile(filepath.Join(repoRoot(t), "testdata", "macros", "urlquery.d2w"))
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string][]byte{"urlquery.d2w": src, "two.d2w": []byte(twoStatements)} {
		if err := os.WriteFile(filepath.Join(macros, name), text, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, txn := range []string{"auto", "single"} {
		for _, cacheBytes := range []int64{0, DefaultServerConfig().QCacheBytes} {
			cfg := DefaultServerConfig()
			cfg.Macros, cfg.Txn, cfg.QCacheBytes = macros, txn, cacheBytes
			cfg.Lint = "off" // the preflight would report the column two.d2w misses on purpose
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := srv.Handler()
			serve := func(what, target string, ctx context.Context, want string) {
				t.Helper()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "http://localhost"+target, nil).WithContext(ctx))
				if !strings.Contains(rec.Body.String(), want) {
					t.Errorf("-txn %s, cache %d, %s: status %d, page lacks %q:\n%s", txn, cacheBytes, what, rec.Code, want, rec.Body)
				}
				if st := srv.DB.TxnStats(); st.ActiveSnapshots != 0 || st.OldestSnapshotAge != 0 {
					t.Errorf("-txn %s, cache %d, after %s: %d active snapshot(s), oldest held %v",
						txn, cacheBytes, what, st.ActiveSnapshots, st.OldestSnapshotAge)
				}
			}
			live := context.Background()
			serve("a failing second statement", "/cgi-bin/db2www/two.d2w/report", live, sqldb.CodeUndefinedColumn)
			serve("a cancelled request", smokeReport, cancelled, context.Canceled.Error())
			serve("a report", smokeReport, live, "<LI>")
			serve("the same report", smokeReport, live, "<LI>")
			serve("a page without SQL", "/cgi-bin/db2www/two.d2w/input", live, "no SQL")
			if srv.QCache != nil && txn == "auto" {
				if st := srv.QCache.Stats(); st.Hits == 0 {
					t.Errorf("-txn auto: the repeated report was no cache hit: %+v", st)
				}
			}
			if err := srv.Close(); err != nil {
				t.Error(err)
			}
		}
	}
}
