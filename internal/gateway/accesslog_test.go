package gateway

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"db2www/internal/obs"
	"db2www/internal/webclient"
)

func fixedClock() time.Time {
	return time.Date(1996, time.June, 4, 10, 30, 0, 0, time.UTC)
}

func okHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/page", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, "<P>twelve bytes</P>") // 19 bytes
	})
	mux.HandleFunc("/missing", func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	})
	return mux
}

func TestAccessLogCommonLogFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(okHandler(), &buf)
	l.Now = fixedClock
	c := &webclient.Client{Handler: l}
	if _, err := c.Get("http://u:pw@host/page?q=1"); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	// host ident authuser [date] "request" status bytes
	want := `- - u [04/Jun/1996:10:30:00 +0000] "GET /page?q=1 HTTP/1.1" 200 19`
	if line != want {
		t.Fatalf("log line:\n got %q\nwant %q", line, want)
	}
}

// TestAccessLogEscapesUser: the user name of a Basic-auth header is the
// client's text, and in a CLF line it stays one field of one line whether
// or not the server checks passwords.
func TestAccessLogEscapesUser(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(okHandler(), &buf)
	l.Now = fixedClock
	req := httptest.NewRequest("GET", "http://host/page", nil)
	req.SetBasicAuth("evil\n6.6.6.6 - admin [01/Jan/2026 +0000] \"GET /x\\y\"\x7f\xc3\xa9", "pw")
	l.ServeHTTP(httptest.NewRecorder(), req)
	want := `192.0.2.1 - evil\x0a6.6.6.6\x20-\x20admin\x20[01/Jan/2026\x20+0000]\x20\x22GET\x20/x\x5cy\x22\x7f\xc3\xa9` +
		` [04/Jun/1996:10:30:00 +0000] "GET /page HTTP/1.1" 200 19` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("log:\n got %q\nwant %q", got, want)
	}
}

// TestAccessLogEscapesRequestLine: a request URI is the client's text too.
// Sent over a socket with a quote and a backslash in its query, it stays
// inside the quoted request field: the line splits on quotes into exactly
// the CLF fields, the request into method, URI and protocol, and what
// follows it is the status and the bytes.
func TestAccessLogEscapesRequestLine(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(okHandler(), &buf)
	l.Now = fixedClock
	ts := httptest.NewServer(l)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(conn, "GET /page?x=\"%20404%200%20\\ HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
	status, err := bufio.NewReader(conn).ReadString('\n')
	conn.Close()
	ts.Close() // waits for the handler, and so for the line
	if err != nil || !strings.Contains(status, " 200 ") {
		t.Fatalf("response %q, %v", status, err)
	}
	line := strings.TrimSuffix(buf.String(), "\n")
	fields := strings.Split(line, `"`)
	if len(fields) != 3 {
		t.Fatalf("the line splits on quotes into %d fields, want 3: %q", len(fields), line)
	}
	if req := strings.Fields(fields[1]); len(req) != 3 || req[0] != "GET" || req[2] != "HTTP/1.1" ||
		req[1] != `/page?x=\x22%20404%200%20\x5c` {
		t.Errorf("request field %q", fields[1])
	}
	if tail := strings.Fields(fields[2]); !slices.Equal(tail, []string{"200", "19"}) {
		t.Errorf("status and bytes %q, want 200 19", fields[2])
	}
}

// staticStack is an AccessLog around a Handler serving one static page,
// /page, of 19 bytes.
func staticStack(t *testing.T) *AccessLog {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "page"), []byte("<P>twelve bytes</P>"), 0o644); err != nil {
		t.Fatal(err)
	}
	return NewAccessLog(&Handler{DocRoot: dir}, nil)
}

// counted reads a series of the registry /metrics and /server-status print.
func counted(series string) float64 { return obs.Default.Snapshot()[series] }

// TestAccessLogCountsStatuses: what the middleware used to count for
// itself the registry counts once, behind it — requests by status and the
// bytes of their responses.
func TestAccessLogCountsStatuses(t *testing.T) {
	l := staticStack(t)
	ok, missing, bytesOut := counted(`db2www_http_requests_total{code="200"}`),
		counted(`db2www_http_requests_total{code="404"}`), counted("db2www_http_response_bytes_total")
	c := &webclient.Client{Handler: l}
	for i := 0; i < 3; i++ {
		if _, err := c.Get("http://host/page"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get("http://host/missing"); err != nil {
		t.Fatal(err)
	}
	if n := counted(`db2www_http_requests_total{code="200"}`) - ok; n != 3 {
		t.Errorf("200s counted: %v, want 3", n)
	}
	if n := counted(`db2www_http_requests_total{code="404"}`) - missing; n != 1 {
		t.Errorf("404s counted: %v, want 1", n)
	}
	if n := counted("db2www_http_response_bytes_total") - bytesOut; n != float64(3*19+len("404 page not found\n")) {
		t.Errorf("response bytes counted: %v, want three pages and one 404", n)
	}
}

func TestServerStatusPage(t *testing.T) {
	l := staticStack(t)
	c := &webclient.Client{Handler: l}
	before := counted(`db2www_http_requests_total{code="200"}`)
	for i := 0; i < 5; i++ {
		if _, err := c.Get("http://host/page"); err != nil {
			t.Fatal(err)
		}
	}
	page, err := c.Get("http://host/server-status")
	if err != nil {
		t.Fatal(err)
	}
	if page.Title() != "Server Status" {
		t.Fatalf("title = %q", page.Title())
	}
	want := fmt.Sprintf(`<LI>db2www_http_requests_total{code="200"}: %v`+"\n", before+5)
	if !strings.Contains(page.Body, want) {
		t.Errorf("status page missing %q:\n%s", want, page.Body)
	}
	// The status page itself is not counted as an access.
	if n := counted(`db2www_http_requests_total{code="200"}`) - before; n != 5 {
		t.Fatalf("status page counted as access: %v", n)
	}
}

func TestAccessLogConcurrentSafe(t *testing.T) {
	var buf syncWriter
	l := NewAccessLog(okHandler(), &buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &webclient.Client{Handler: l}
			for j := 0; j < 25; j++ {
				if _, err := c.Get("http://host/page"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := strings.Count(buf.String(), "\n"); n != 200 {
		t.Fatalf("log lines = %d, want 200", n)
	}
	if n := strings.Count(buf.String(), `"GET /page HTTP/1.1" 200 19`); n != 200 {
		t.Fatalf("whole lines = %d, want 200", n)
	}
}

// TestServerStatusSections: the section table claims each family for one
// subsystem — no prefix of one section starts a prefix of another — and a
// family nobody claims is listed under "Other"; the trace ring comes last.
func TestServerStatusSections(t *testing.T) {
	for i, s := range statusSections {
		for _, p := range s.prefixes {
			for j, o := range statusSections {
				for _, q := range o.prefixes {
					if i != j && strings.HasPrefix(q, p) {
						t.Errorf("%q (%s) also starts %q (%s)", p, s.title, q, o.title)
					}
				}
			}
		}
	}
	for name, want := range map[string]string{
		"db2www_http_response_bytes_total":   "Requests",
		"db2www_slo_requests":                "SLO burn rates",
		"db2www_macro_cache_hits":            "Macro cache",
		"db2www_macrolint_refused_total":     "Macro lint",
		"db2www_sqldb_txn_watermark":         "Transactions",
		"db2www_sqldb_stmt_calls":            "Statements",
		"db2www_sqldb_plan_cache_size":       "Planner",
		"db2www_sqldb_table_live_rows":       "Storage",
		"db2www_qcache_entries":              "Query cache",
		"db2www_flight_pprof_captures_total": "Flight recorder",
		"go_goroutines":                      "Runtime",
		"someone_elses_total":                "Other",
	} {
		if got := statusSections[statusSection(name)].title; got != want {
			t.Errorf("%s is listed under %q, want %q", name, got, want)
		}
	}
	l := NewAccessLog(okHandler(), nil)
	l.Traces = obs.NewRing(4)
	c := &webclient.Client{Handler: l}
	page, err := c.Get("http://host/server-status")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(page.Body, "<H2>Recent traces</H2>\n<UL>\n<LI>(no traces yet): \n</UL>\n</BODY></HTML>\n") {
		t.Errorf("the page does not end in the trace ring:\n%s", page.Body)
	}
}

func TestMacroCacheStats(t *testing.T) {
	h, app := newTestStack(t)
	c := &webclient.Client{Handler: h}
	for i := 0; i < 3; i++ {
		if page, err := c.Get("http://host/cgi-bin/db2www/urlquery.d2w/input"); err != nil || page.Status != 200 {
			t.Fatalf("status %d err %v", page.Status, err)
		}
	}
	hits, misses := app.MacroCacheStats()
	if misses != 1 || hits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", hits, misses)
	}

	// With the macro cache off every load is a miss.
	app.CacheMacros = false
	if _, err := c.Get("http://host/cgi-bin/db2www/urlquery.d2w/input"); err != nil {
		t.Fatal(err)
	}
	hits, misses = app.MacroCacheStats()
	if misses != 2 || hits != 2 {
		t.Fatalf("after disabling: hits/misses = %d/%d, want 2/2", hits, misses)
	}
}

func TestAccessLogWithGateway(t *testing.T) {
	h, _ := newTestStack(t)
	var buf bytes.Buffer
	l := NewAccessLog(h, &buf)
	c := &webclient.Client{Handler: l}
	page, err := c.Get("http://host/cgi-bin/db2www/urlquery.d2w/input")
	if err != nil || page.Status != 200 {
		t.Fatalf("status %d err %v", page.Status, err)
	}
	if !strings.Contains(buf.String(), `"GET /cgi-bin/db2www/urlquery.d2w/input HTTP/1.1" 200`) {
		t.Fatalf("log = %q", buf.String())
	}
}
