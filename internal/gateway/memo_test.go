package gateway

import (
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"db2www/internal/core"
)

// panicProvider's connections panic on a statement that names "boom", as
// an engine bug would.
type panicProvider struct{ core.DBProvider }

func (p panicProvider) Connect(database, login, password string) (core.DBConn, error) {
	conn, err := p.DBProvider.Connect(database, login, password)
	if err != nil {
		return nil, err
	}
	return panicConn{conn}, nil
}

type panicConn struct{ core.DBConn }

func (c panicConn) Execute(sql string) (*core.SQLResult, error) {
	if strings.Contains(sql, "boom") {
		panic("the engine exploded on " + sql)
	}
	return c.DBConn.Execute(sql)
}

// sharedResult answers every statement with one result, as the query cache
// answers every hit of one entry.
type sharedResult struct{ res *core.SQLResult }

func (p sharedResult) Connect(_, _, _ string) (core.DBConn, error) { return p, nil }
func (p sharedResult) Execute(string) (*core.SQLResult, error)     { return p.res, nil }
func (sharedResult) Begin() error                                  { return nil }
func (sharedResult) Commit() error                                 { return nil }
func (sharedResult) Rollback() error                               { return nil }
func (sharedResult) Close() error                                  { return nil }

// panicOnLargeWrite is a page that panics on a write of more than 1 KB.
type panicOnLargeWrite struct{ io.Writer }

func (w panicOnLargeWrite) Write(p []byte) (int, error) {
	if len(p) > 1024 {
		panic("the page went away")
	}
	return w.Writer.Write(p)
}

// TestPanicIsAKept500: a panic in the engine answers its request with the
// generic 500 page — the panic's value stays in the log, with the stack and
// the trace ID — and the request's record is finished like any other 5xx:
// kept by the flight recorder, counted under code="500", the in-flight
// gauge back to zero. The server goes on serving. And a panic in the middle
// of a memo fill leaves no memo on the result.
func TestPanicIsAKept500(t *testing.T) {
	srv, err := NewServer(smokeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var logged syncWriter
	srv.root.next.(*Handler).Logf = func(format string, args ...any) { fmt.Fprintf(&logged, format+"\n", args...) }
	srv.app.Engine.DB = panicProvider{srv.app.Engine.DB}
	h := srv.Handler()

	req := httptest.NewRequest("GET", "http://localhost/cgi-bin/db2www/urlquery.d2w/report?SEARCH=boom&USE_URL=yes", nil)
	req.Header.Set("X-Trace-Id", "boom")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if body := rec.Body.String(); rec.Code != 500 || !strings.Contains(body, "Internal server error") ||
		!strings.Contains(body, "trace boom") || strings.Contains(body, "exploded") {
		t.Errorf("a panicking request: status %d\n%s", rec.Code, body)
	}
	get(t, h, smokeReport)
	if n := mInFlight.Value(); n != 0 {
		t.Errorf("in-flight gauge %d after the panic, want 0", n)
	}
	if tr := srv.Flight.Get("boom"); tr == nil || tr.Status != 500 || tr.Decision != "kept:error" {
		t.Errorf("flight record of the panicking request: %+v", tr)
	}
	wantAll(t, "/metrics", get(t, h, "/metrics"), `db2www_http_requests_total{code="500"}`)
	wantAll(t, "the log", logged.String(), "trace=boom", "panic: the engine exploded on SELECT", "goroutine ")

	m, err := core.ParseWithIncludes("memo.d2w", "%DEFINE{\nD2 = ? \"<br>$(V2)\"\n%}\n"+
		"%SQL{SELECT 1\n%SQL_REPORT{<UL>\n%ROW{<LI>$(V1) $(D2)\n%}\n</UL>\n%}\n%}\n%HTML_REPORT{%EXEC_SQL%}\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.SQLResult{Columns: []string{"url", "title"}}
	for i := 0; i < 100; i++ {
		res.Rows = append(res.Rows, []core.Field{{S: fmt.Sprintf("http://www.ibm%d.com/", i)}, {S: "title"}})
	}
	engine := &core.Engine{DB: sharedResult{res}}
	render := func(w io.Writer) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		if err := engine.Run(m, core.ModeReport, nil, w); err != nil {
			t.Fatal(err)
		}
		return false
	}
	if render(panicOnLargeWrite{io.Discard}) || !render(panicOnLargeWrite{io.Discard}) {
		t.Fatal("want the first rendering to print row by row and the second, the memo fill, to panic")
	}
	if n := res.MemoBytes(); n != 0 {
		t.Errorf("a fill that panicked left a memo of %d bytes", n)
	}
	if render(io.Discard); res.MemoBytes() == 0 {
		t.Error("the next rendering filled no memo")
	}
}

// TestMemoOnlyOnACachedResult: only a cache renders one result twice, so
// the default server serves a report's %ROW block from its memo from the
// third request on, and a server without the cache (-qcache-bytes 0) or
// with every statement inside its request's transaction (-txn single)
// never does — nor keeps one: under -txn single the cache holds nothing.
// Every page is the same.
func TestMemoOnlyOnACachedResult(t *testing.T) {
	const report = "/cgi-bin/db2www/urlquery.d2w/report?DBFIELDS=title&DBFIELDS=description"
	for _, c := range []struct {
		name string
		set  func(*ServerConfig)
		memo bool
	}{
		{"default", func(*ServerConfig) {}, true},
		{"-qcache-bytes 0", func(c *ServerConfig) { c.QCacheBytes = 0 }, false},
		{"-txn single", func(c *ServerConfig) { c.Txn = "single" }, false},
	} {
		cfg := DefaultServerConfig()
		cfg.Macros = filepath.Join(repoRoot(t), "testdata", "macros")
		cfg.Dataset = "urldb:200:1"
		c.set(&cfg)
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		first := get(t, h, report)
		for i := 1; i < 4; i++ {
			if page := get(t, h, report); page != first {
				t.Errorf("%s: request %d differs from the first", c.name, i+1)
			}
		}
		traces := srv.Traces.Snapshot() // newest first
		for i, tr := range traces {
			served := tr.SQL[0].Render == "memo"
			if want := c.memo && i < 2; served != want {
				t.Errorf("%s: request %d served from the memo: %v, want %v", c.name, len(traces)-i, served, want)
			}
		}
		if c.memo && !strings.Contains(srv.Traces.StatusRows()[0][1], "cache=hit render=memo digest=") {
			t.Errorf("%s: the record's note lacks render=memo: %s", c.name, srv.Traces.StatusRows()[0][1])
		}
		if cfg.Txn == "single" && srv.QCache.Bytes() != 0 {
			t.Errorf("%s: the cache holds %d bytes", c.name, srv.QCache.Bytes())
		}
		srv.Close()
	}
}

// TestAppendixAFormsServedFromMemo: each of the four ways the benchmark's
// appendixa_search workload fills in the Appendix A form selects another
// set of columns — url and title, all three, url alone, url and
// description — and each is a report whose third request the default
// server serves from the memo, the wrapper of a column not selected being
// null on every row. Its page is the one a server without the cache
// (-qcache-bytes 0) prints.
func TestAppendixAFormsServedFromMemo(t *testing.T) {
	forms := []string{
		"SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=%24%28hidden_a%29",
		"SEARCH=ib&USE_TITLE=yes&USE_DESC=yes&DBFIELDS=%24%28hidden_a%29&DBFIELDS=%24%28hidden_b%29",
		"SEARCH=ib&USE_URL=yes",
		"SEARCH=ib&USE_URL=yes&USE_TITLE=yes&USE_DESC=yes&DBFIELDS=%24%28hidden_b%29",
	}
	server := func(set func(*ServerConfig)) *Server {
		cfg := DefaultServerConfig()
		cfg.Macros = filepath.Join(repoRoot(t), "testdata", "macros")
		cfg.Dataset = "urldb:500:1"
		set(&cfg)
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	cached, uncached := server(func(*ServerConfig) {}), server(func(c *ServerConfig) { c.QCacheBytes = 0 })
	post := func(srv *Server, body string) string {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "http://localhost/cgi-bin/db2www/urlquery.d2w/report", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), "<LI>") {
			t.Fatalf("%s: status %d, no rows\n%s", body, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	for i, body := range forms {
		var page string
		for range 3 {
			page = post(cached, body)
		}
		if render := cached.Traces.Snapshot()[0].SQL[0].Render; render != "memo" {
			t.Errorf("form %d: the third request's render=%q, want memo", i, render)
		}
		if want := post(uncached, body); page != want {
			t.Errorf("form %d: the memo's page differs from the uncached one\n%s\nwant\n%s", i, page, want)
		}
	}
}
