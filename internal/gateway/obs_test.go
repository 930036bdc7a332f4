package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"db2www/internal/flight"
	"db2www/internal/obs"
)

// TestTraceIDPropagation walks one request end to end: a client-supplied
// X-Trace-Id must come back on the response header, land in the trace
// ring, and carry the engine's phase spans (parse, var-eval, sql-exec,
// report-render).
func TestTraceIDPropagation(t *testing.T) {
	h, _ := newTestStack(t)
	ring := obs.NewRing(8)
	h.TraceRing = ring

	req := httptest.NewRequest("GET",
		"http://server/cgi-bin/db2www/urlquery.d2w/report?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title", nil)
	req.Header.Set("X-Trace-Id", "t1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if rec.Code != 200 {
		t.Fatalf("status = %d, body: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Trace-Id"); got != "t1" {
		t.Fatalf("X-Trace-Id = %q, want t1", got)
	}
	traces := ring.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.ID != "t1" {
		t.Errorf("trace ID = %q", tr.ID)
	}
	if tr.Status != 200 || tr.Total <= 0 {
		t.Errorf("finish: status=%d total=%v", tr.Status, tr.Total)
	}
	names := map[string]string{}
	for _, sp := range tr.Spans {
		names[sp.Name()] = tr.Note(sp)
	}
	for _, want := range []string{"parse", "var-eval:(unnamed)",
		"sql-exec:(unnamed)", "report-render:(unnamed)"} {
		if _, ok := names[want]; !ok {
			t.Errorf("span %q missing; have %v", want, names)
		}
	}
	if note := names["sql-exec:(unnamed)"]; !strings.Contains(note, "rows=") ||
		!strings.Contains(note, "sql=") {
		t.Errorf("sql-exec note = %q, want rows= and sql=", note)
	}
}

// TestTraceIDMinted verifies a request without the header still gets a
// well-formed ID, and that a hostile header value is replaced.
func TestTraceIDMinted(t *testing.T) {
	h, _ := newTestStack(t)
	for _, hdr := range []string{"", "bad value\nwith junk"} {
		req := httptest.NewRequest("GET", "http://server/cgi-bin/db2www/urlquery.d2w/input", nil)
		if hdr != "" {
			req.Header.Set("X-Trace-Id", hdr)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		id := rec.Header().Get("X-Trace-Id")
		if obs.SanitizeTraceID(id) != id || id == "" {
			t.Errorf("header %q: minted ID %q is not clean", hdr, id)
		}
		if hdr != "" && id == hdr {
			t.Errorf("hostile header value %q echoed verbatim", hdr)
		}
	}
}

// TestErrorPageCarriesTraceID: macro-level failures (bad command name)
// keep their 1996-style error page but gain the trace footer.
func TestErrorPageCarriesTraceID(t *testing.T) {
	h, _ := newTestStack(t)
	req := httptest.NewRequest("GET", "http://server/cgi-bin/db2www/urlquery.d2w/badcmd", nil)
	req.Header.Set("X-Trace-Id", "t2")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "trace t2") {
		t.Errorf("error page missing trace footer:\n%s", rec.Body.String())
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and checks the
// exposition carries the request histogram, status-code counters, and
// per-section SQL latency series.
func TestMetricsEndpoint(t *testing.T) {
	h, _ := newTestStack(t)
	al := NewAccessLog(h, nil)
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest("GET",
			"http://server/cgi-bin/db2www/urlquery.d2w/report?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title", nil)
		rec := httptest.NewRecorder()
		al.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("warm request %d: status %d", i, rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	al.ServeHTTP(rec, httptest.NewRequest("GET", "http://server/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE db2www_http_requests_total counter",
		`db2www_http_requests_total{code="200"}`,
		"# TYPE db2www_http_request_seconds histogram",
		`db2www_http_request_seconds_bucket{le="+Inf"}`,
		"db2www_http_request_seconds_count",
		`db2www_sql_exec_seconds_count{section="(unnamed)"}`,
		"db2www_sqldb_exec_seconds_bucket",
		"db2www_sqldb_rows_returned_total",
		"db2www_http_in_flight",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerStatusSectionsConcurrent renders /server-status while requests
// are counted into the registry and fill the trace ring it lists; run
// under -race this pins that the page reads nothing a request writes
// without the owner's lock.
func TestServerStatusSectionsConcurrent(t *testing.T) {
	h, _ := newTestStack(t)
	h.TraceRing = obs.NewRing(16)
	al := NewAccessLog(h, nil)
	al.Traces = h.TraceRing

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rec := httptest.NewRecorder()
				al.ServeHTTP(rec, httptest.NewRequest("GET", "http://server/server-status", nil))
				if rec.Code != 200 {
					t.Errorf("/server-status status = %d", rec.Code)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rec := httptest.NewRecorder()
				al.ServeHTTP(rec, httptest.NewRequest("GET",
					"http://server/cgi-bin/db2www/urlquery.d2w/input", nil))
				if rec.Code != 200 {
					t.Errorf("request status = %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()

	rec := httptest.NewRecorder()
	al.ServeHTTP(rec, httptest.NewRequest("GET", "http://server/server-status", nil))
	for _, want := range []string{"<H2>Requests</H2>", `<LI>db2www_http_requests_total{code="200"}: `,
		"<H2>Recent traces</H2>", " 200 GET /cgi-bin/db2www/urlquery.d2w/input: "} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("status page missing %q", want)
		}
	}
}

// TestHandlerGenericErrorBodies: client-visible error text must be the
// generic phrase; the detail goes to Logf with the trace ID.
func TestHandlerGenericErrorBodies(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	h := &Handler{
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "http://server/cgi-bin/db2www/x.d2w/input", nil)
	req.Header.Set("X-Trace-Id", "t3")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	if body := strings.TrimSpace(rec.Body.String()); body != "server misconfigured" {
		t.Errorf("body = %q leaks detail", body)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "trace=t3") {
		t.Errorf("server-side log = %v, want one line tagged trace=t3", logged)
	}
}

// TestOversizedBodyIs413: a form of exactly the limit is served whole; one
// byte more is refused with 413 and the generic body — the macro never
// runs on half a form, which is what io.LimitReader used to hand it — the
// detail is logged with the trace ID, and the request's record carries
// the status.
func TestOversizedBodyIs413(t *testing.T) {
	h, _ := newTestStack(t)
	h.TraceRing = obs.NewRing(4)
	var logged []string // filled on this goroutine: ServeHTTP is called directly
	h.Logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	post := func(id string, size int) *httptest.ResponseRecorder {
		// The checkbox comes last: a truncated form would lose it and
		// report on every row.
		form := "SEARCH=zzzz&PAD=" + strings.Repeat("x", size-len("SEARCH=zzzz&PAD=&USE_URL=yes")) + "&USE_URL=yes"
		req := httptest.NewRequest("POST", "http://server/cgi-bin/db2www/urlquery.d2w/report", strings.NewReader(form))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		req.Header.Set("X-Trace-Id", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	// One <LI> is the page's footer link: no row matches zzzz.
	if rec := post("fits", maxBodyBytes); rec.Code != http.StatusOK || strings.Count(rec.Body.String(), "<LI>") != 1 {
		t.Errorf("a %d-byte form: status %d, %d <LI>", maxBodyBytes, rec.Code, strings.Count(rec.Body.String(), "<LI>"))
	}
	rec := post("over", maxBodyBytes+1)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("a %d-byte form: status %d, want 413", maxBodyBytes+1, rec.Code)
	}
	if body := strings.TrimSpace(rec.Body.String()); body != "request entity too large" {
		t.Errorf("body = %q, want the generic phrase", body)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "trace=over") || !strings.Contains(logged[0], "too large") {
		t.Errorf("server-side log = %v, want one line tagged trace=over naming the cause", logged)
	}
	status := map[string]int{}
	for _, tr := range h.TraceRing.Snapshot() {
		status[tr.ID] = tr.Status
	}
	if status["fits"] != http.StatusOK || status["over"] != http.StatusRequestEntityTooLarge {
		t.Errorf("the requests' records carry %v, want fits 200 and over 413", status)
	}
}

// TestSlowLogOnRequestPath: where a slow request is found now that the
// slow log is the flight recorder. A request over the cut-off is kept as
// kept:slow whatever the sample rate, and its flight.jsonl line carries
// what the slow log's line did: trace ID, status, total, method, path,
// every span with its note, the substituted SQL and its row count.
func TestSlowLogOnRequestPath(t *testing.T) {
	h, _ := newTestStack(t)
	dir := t.TempDir()
	rec, err := flight.New(flight.Config{SlowThreshold: time.Nanosecond, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	h.Flight = rec

	req := httptest.NewRequest("GET",
		"http://server/cgi-bin/db2www/urlquery.d2w/report?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title", nil)
	req.Header.Set("X-Trace-Id", "t4")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status = %d", w.Code)
	}
	line, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var kept struct {
		TraceID     string `json:"trace_id"`
		Method      string `json:"method"`
		Path        string `json:"path"`
		Status      int    `json:"status"`
		TotalMicros int64  `json:"total_micros"`
		Decision    string `json:"decision"`
		Spans       []struct {
			Name, Note string
			DurMicros  int64 `json:"dur_micros"`
		} `json:"spans"`
		SQL []struct {
			SQL  string `json:"sql"`
			Rows int    `json:"rows"`
		} `json:"sql"`
	}
	if err := json.Unmarshal(line, &kept); err != nil {
		t.Fatalf("flight.jsonl is not one record: %v\n%s", err, line)
	}
	if kept.TraceID != "t4" || kept.Decision != flight.KeptSlow || kept.Status != 200 || kept.TotalMicros <= 0 ||
		kept.Method != "GET" || kept.Path != "/cgi-bin/db2www/urlquery.d2w/report" {
		t.Errorf("kept record = %+v", kept)
	}
	if len(kept.SQL) != 1 || kept.SQL[0].Rows == 0 || !strings.Contains(kept.SQL[0].SQL, "LIKE '%ib%'") {
		t.Errorf("the record lacks the substituted SQL and its row count: %+v", kept.SQL)
	}
	tr := rec.Get("t4")
	if tr == nil || len(kept.Spans) == 0 || len(kept.Spans) != len(tr.Spans) {
		t.Fatalf("the line has %d spans, the record %+v", len(kept.Spans), tr)
	}
	var sqlNote string
	for _, sp := range kept.Spans {
		if sp.Name == "sql-exec:(unnamed)" {
			sqlNote = sp.Note
		}
	}
	if !strings.Contains(sqlNote, fmt.Sprintf("rows=%d", kept.SQL[0].Rows)) || !strings.Contains(sqlNote, "sql=") {
		t.Errorf("the sql-exec span's note = %q, want the row count and the statement", sqlNote)
	}
}

// TestObsDisabledSkipsTracing: with instrumentation off the handler
// neither mints IDs nor records traces, and requests still succeed.
func TestObsDisabledSkipsTracing(t *testing.T) {
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	h, _ := newTestStack(t)
	ring := obs.NewRing(8)
	h.TraceRing = ring
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET",
		"http://server/cgi-bin/db2www/urlquery.d2w/input", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get("X-Trace-Id") != "" {
		t.Error("trace ID minted while disabled")
	}
	if len(ring.Snapshot()) != 0 {
		t.Error("trace recorded while disabled")
	}
}

// syncWriter is a goroutine-safe buffer for log output.
type syncWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncWriter) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncWriter) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestCGITimeoutMaps504 exercises the subprocess error classification
// without a real subprocess: a handler with a bogus CGI program path
// yields 502 (start failure), never a raw error string.
func TestCGITimeoutMaps504(t *testing.T) {
	h := &Handler{CGIProgram: "/nonexistent/db2www", CGITimeout: time.Second,
		Logf: func(string, ...any) {}}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "http://server/cgi-bin/db2www/x.d2w/input", nil))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", rec.Code)
	}
	if body := strings.TrimSpace(rec.Body.String()); body != "gateway error" {
		t.Errorf("body = %q leaks detail", body)
	}
}
