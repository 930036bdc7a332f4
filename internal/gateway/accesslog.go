package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"db2www/internal/obs"
)

// AccessLog is NCSA Common Log Format middleware plus an Apache-style
// /server-status page — the observability a 1996 webmaster had. Wrap any
// handler (typically the Handler of this package):
//
//	logged := gateway.NewAccessLog(h, logFile)
//	http.ListenAndServe(addr, logged)
//
// It counts nothing of its own: /server-status and /metrics both print the
// obs registry, where Handler counts requests.
type AccessLog struct {
	next http.Handler
	mu   sync.Mutex // one line at a time on out
	out  io.Writer

	// Format selects the log line format: "clf" (default, NCSA Common Log
	// Format with a trace=/flight=/digest= suffix) or "json" (one JSON
	// object per line carrying the same fields plus latency in
	// microseconds — grep-able with jq instead of awk).
	Format string
	// Now is the clock used for log timestamps (overridable for tests).
	Now func() time.Time
	// Traces, when non-nil, is the ring /server-status lists under "Recent
	// traces", newest first.
	Traces *obs.Ring

	routes sync.Map // path → http.Handler, mounted by Handle
}

// Where the middleware serves its two pages of its own.
const (
	statusPath  = "/server-status"
	metricsPath = "/metrics"
)

// Handle mounts an extra endpoint (e.g. /debug/flight) on the
// middleware, beside /server-status and /metrics. Such requests are
// served directly and do not reach the wrapped handler or the log.
func (l *AccessLog) Handle(path string, h http.Handler) { l.routes.Store(path, h) }

// NewAccessLog wraps next, writing one Common Log Format line per request
// to out (nil writes none).
func NewAccessLog(next http.Handler, out io.Writer) *AccessLog {
	return &AccessLog{next: next, out: out, Now: time.Now}
}

// countingWriter captures the status code and body size of a response.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (cw *countingWriter) WriteHeader(code int) {
	cw.status = code
	cw.ResponseWriter.WriteHeader(code)
}

// code is the status the response went out with.
func (cw *countingWriter) code() int {
	if cw.status == 0 {
		return http.StatusOK
	}
	return cw.status
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.status == 0 {
		cw.status = http.StatusOK
	}
	n, err := cw.ResponseWriter.Write(p)
	cw.bytes += int64(n)
	return n, err
}

// ServeHTTP implements http.Handler.
func (l *AccessLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case statusPath:
		l.serveStatus(w)
		return
	case metricsPath:
		obs.Default.ServeHTTP(w, r)
		return
	}
	if route, ok := l.routes.Load(r.URL.Path); ok {
		route.(http.Handler).ServeHTTP(w, r)
		return
	}
	// The line is only put together when there is somewhere to write it;
	// what the inner handler learnt of the request (trace ID, retention
	// decision, slowest statement) it left on the request's record.
	cw, r, tr := beginRequest(w, r)
	if l.out == nil {
		l.next.ServeHTTP(cw, r)
		return
	}
	start := l.Now()
	l.next.ServeHTTP(cw, r)
	line := l.line(r, cw, tr, start)
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.out, line) // a full disk must not fail the request it would have logged
}

// line formats the log line of a request that began at start and has
// just ended.
func (l *AccessLog) line(r *http.Request, cw *countingWriter, tr *obs.Trace, start time.Time) string {
	now := l.Now()
	host := r.RemoteAddr
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	if host == "" {
		host = "-"
	}
	user := "-"
	if u, _, ok := r.BasicAuth(); ok && u != "" {
		user = u
	}
	// The join keys against /debug/flight and /debug/statements, when the
	// flight recorder handled the request.
	var traceID, decision, digest string
	if tr != nil && tr.Decision != "" {
		traceID, decision, digest = tr.ID, tr.Decision, tr.TopDigest()
	}
	if l.Format == "json" {
		// One JSON object per line: the CLF fields, the join keys, and the
		// middleware-measured latency. Fields are in the order of their
		// names.
		b, err := json.Marshal(struct {
			Bytes     int64  `json:"bytes"`
			Digest    string `json:"digest,omitempty"`
			Flight    string `json:"flight,omitempty"`
			Host      string `json:"host"`
			LatencyUS int64  `json:"latency_us"`
			Method    string `json:"method"`
			Proto     string `json:"proto"`
			Status    int    `json:"status"`
			Time      string `json:"time"`
			Trace     string `json:"trace,omitempty"`
			URI       string `json:"uri"`
			User      string `json:"user"`
		}{cw.bytes, digest, decision, host, now.Sub(start).Microseconds(), r.Method, r.Proto,
			cw.code(), now.UTC().Format(time.RFC3339Nano), traceID, r.URL.RequestURI(), user})
		if err != nil {
			b = []byte(`{"error":"marshal"}`)
		}
		return string(b) + "\n"
	}
	// NCSA Common Log Format:
	// host ident authuser [date] "request" status bytes
	// — plus a trace=/flight=/digest= suffix of the join keys.
	suffix := ""
	if traceID != "" {
		suffix = fmt.Sprintf(" trace=%s flight=%s", traceID, decision)
		if digest != "" {
			suffix += " digest=" + digest
		}
	}
	return fmt.Sprintf("%s - %s [%s] \"%s %s %s\" %d %d%s\n",
		host, logItem(user), now.Format("02/Jan/2006:15:04:05 -0700"),
		r.Method, r.URL.RequestURI(), r.Proto, cw.code(), cw.bytes, suffix)
}

// logItem escapes a field of a CLF line that the client wrote, as
// Apache's mod_log_config does: a byte that is not printable ASCII, a
// space, a quote and a backslash become \xhh, so the field can neither end
// the line nor split it into other fields.
func logItem(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f || c == '"' || c == '\\' {
			fmt.Fprintf(&b, `\x%02x`, c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// statusSections is /server-status: the registry's families grouped by
// the subsystem that records them, in page order. A family is listed in
// the section one of whose prefixes its name starts with — no name starts
// with two — and one no prefix claims under "Other".
var statusSections = []struct {
	title    string
	prefixes []string
}{
	{"Requests", []string{"db2www_http_"}},
	{"Build info", []string{"db2www_build_"}},
	{"SLO burn rates", []string{"db2www_slo_"}},
	{"Macro cache", []string{"db2www_macro_cache_"}},
	{"Macro lint", []string{"db2www_macrolint_"}},
	{"Transactions", []string{"db2www_sqldb_txn_", "db2www_sqldb_oldest_snapshot_", "db2www_sqldb_vacuum_",
		"db2www_sqldb_lock_wait_"}},
	{"Statements", []string{"db2www_sqldb_stmt_", "db2www_sqldb_exec_", "db2www_sqldb_rows_returned_",
		"db2www_sql_exec_"}},
	{"Planner", []string{"db2www_sqldb_plan_cache_"}},
	{"Storage", []string{"db2www_sqldb_table_", "db2www_sqldb_index_", "db2www_sqldb_version_chain_"}},
	{"Query cache", []string{"db2www_qcache_"}},
	{"Flight recorder", []string{"db2www_flight_"}},
	{"Runtime", []string{"go_", "db2www_uptime_"}},
	{"Other", nil},
}

// statusSection returns the index in statusSections of the section that
// lists the family name.
func statusSection(name string) int {
	for i, s := range statusSections {
		for _, p := range s.prefixes {
			if strings.HasPrefix(name, p) {
				return i
			}
		}
	}
	return len(statusSections) - 1
}

// serveStatus renders the statistics page: every series /metrics serves,
// one "name{labels}: value" row each (a histogram as its _count and _sum),
// then the trace ring.
func (l *AccessLog) serveStatus(w http.ResponseWriter) {
	rows := make([][][2]string, len(statusSections))
	add := func(s obs.Sample, suffix string, v float64) {
		i := statusSection(s.Name)
		rows[i] = append(rows[i], [2]string{s.Name + suffix + s.Labels, strconv.FormatFloat(v, 'f', -1, 64)})
	}
	for _, s := range obs.Default.FullSnapshot() {
		if s.Kind == "histogram" {
			add(s, "_count", s.Value)
			add(s, "_sum", s.Sum)
		} else {
			add(s, "", s.Value)
		}
	}
	section := func(title string, rows [][2]string) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(w, "<H2>%s</H2>\n<UL>\n", title)
		for _, r := range rows {
			fmt.Fprintf(w, "<LI>%s: %s\n", htmlEscape(r[0]), htmlEscape(r[1]))
		}
		fmt.Fprintf(w, "</UL>\n")
	}
	w.Header().Set("Content-Type", "text/html")
	fmt.Fprintf(w, "<HTML><HEAD><TITLE>Server Status</TITLE></HEAD><BODY>\n<H1>gatewayd status</H1>\n")
	fmt.Fprintf(w, "<P>Every row is a series of <A HREF=\"%[1]s\">%[1]s</A>.</P>\n", metricsPath)
	for i, s := range statusSections {
		section(s.title, rows[i])
	}
	if l.Traces != nil {
		section("Recent traces", l.Traces.StatusRows())
	}
	fmt.Fprintf(w, "</BODY></HTML>\n")
}
