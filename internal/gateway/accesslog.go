package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
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
type AccessLog struct {
	next http.Handler
	mu   sync.Mutex
	out  io.Writer

	// Format selects the log line format: "clf" (default, NCSA Common Log
	// Format with a trace=/flight=/digest= suffix) or "json" (one JSON
	// object per line carrying the same fields plus latency in
	// microseconds — grep-able with jq instead of awk).
	Format string
	// Metrics is the registry /metrics serves, in Prometheus text
	// exposition format. Defaults to obs.Default.
	Metrics *obs.Registry
	// Now is the clock used for log timestamps (overridable for tests).
	Now func() time.Time
	// MaxPaths caps how many distinct URL paths the per-path counters
	// track; once full, requests for new paths fall into one aggregate
	// "other" bucket, so a client scanning random URLs cannot grow
	// gateway memory without bound. 0 means the default (512).
	MaxPaths int

	started    time.Time
	requests   int64
	bytes      int64
	statuses   map[int]int64
	paths      map[string]int64
	otherPaths int64
	sections   []statusSection
	routes     map[string]http.Handler
}

// statusSection is one caller-registered block on the status page.
type statusSection struct {
	title string
	items func() [][2]string
}

// defaultMaxPaths bounds the paths map when MaxPaths is unset.
const defaultMaxPaths = 512

// Where the middleware serves its two pages of its own.
const (
	statusPath  = "/server-status"
	metricsPath = "/metrics"
)

// AddStatusSection appends a section to the /server-status page. items is
// called per render (under no AccessLog locks) and returns name/value
// rows — how the gateway surfaces cache counters and other app metrics
// through the one observability page a 1996 webmaster had.
func (l *AccessLog) AddStatusSection(title string, items func() [][2]string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sections = append(l.sections, statusSection{title: title, items: items})
}

// Handle mounts an extra endpoint (e.g. /debug/flight) on the
// middleware, beside /server-status and /metrics. Such requests are
// served directly and do not reach the wrapped handler or the log.
func (l *AccessLog) Handle(path string, h http.Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.routes == nil {
		l.routes = map[string]http.Handler{}
	}
	l.routes[path] = h
}

// NewAccessLog wraps next, writing one Common Log Format line per request
// to out (nil discards the lines but still collects statistics).
func NewAccessLog(next http.Handler, out io.Writer) *AccessLog {
	return &AccessLog{
		next:     next,
		out:      out,
		Now:      time.Now,
		started:  time.Now(),
		statuses: map[int]int64{},
		paths:    map[string]int64{},
	}
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
	if r.URL.Path == statusPath {
		l.serveStatus(w)
		return
	}
	if r.URL.Path == metricsPath {
		reg := l.Metrics
		if reg == nil {
			reg = obs.Default
		}
		reg.ServeHTTP(w, r)
		return
	}
	l.mu.Lock()
	route := l.routes[r.URL.Path]
	l.mu.Unlock()
	if route != nil {
		route.ServeHTTP(w, r)
		return
	}
	// The line is only put together when there is somewhere to write it;
	// what the inner handler learnt of the request (trace ID, retention
	// decision, slowest statement) it left on the request's record.
	cw, r, tr := beginRequest(w, r)
	var start time.Time
	if l.out != nil {
		start = l.Now()
	}
	l.next.ServeHTTP(cw, r)
	var line string
	if l.out != nil {
		line = l.line(r, cw, tr, start)
	}

	maxPaths := l.MaxPaths
	if maxPaths <= 0 {
		maxPaths = defaultMaxPaths
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests++
	l.bytes += cw.bytes
	l.statuses[cw.code()]++
	if _, known := l.paths[r.URL.Path]; known || len(l.paths) < maxPaths {
		l.paths[r.URL.Path]++
	} else {
		l.otherPaths++
	}
	if l.out != nil {
		_, _ = io.WriteString(l.out, line) // a full disk must not fail the request it would have logged
	}
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
		host, user, now.Format("02/Jan/2006:15:04:05 -0700"),
		r.Method, r.URL.RequestURI(), r.Proto, cw.code(), cw.bytes, suffix)
}

// Stats returns the counters collected so far.
func (l *AccessLog) Stats() (requests, bytes int64, statuses map[int]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	statuses = make(map[int]int64, len(l.statuses))
	for k, v := range l.statuses {
		statuses[k] = v
	}
	return l.requests, l.bytes, statuses
}

// serveStatus renders the statistics page.
func (l *AccessLog) serveStatus(w http.ResponseWriter) {
	l.mu.Lock()
	uptime := time.Since(l.started).Round(time.Second)
	requests, bytes := l.requests, l.bytes
	type kv struct {
		k string
		v int64
	}
	var statuses []kv
	for code, n := range l.statuses {
		statuses = append(statuses, kv{fmt.Sprintf("%d", code), n})
	}
	var paths []kv
	for p, n := range l.paths {
		paths = append(paths, kv{p, n})
	}
	otherPaths := l.otherPaths
	sections := make([]statusSection, len(l.sections))
	copy(sections, l.sections)
	l.mu.Unlock()
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].k < statuses[j].k })
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].v != paths[j].v {
			return paths[i].v > paths[j].v
		}
		return paths[i].k < paths[j].k
	})
	if len(paths) > 20 {
		paths = paths[:20]
	}

	w.Header().Set("Content-Type", "text/html")
	fmt.Fprintf(w, "<HTML><HEAD><TITLE>Server Status</TITLE></HEAD><BODY>\n")
	fmt.Fprintf(w, "<H1>gatewayd status</H1>\n")
	fmt.Fprintf(w, "<P>Uptime: %s<BR>Total accesses: %d<BR>Total traffic: %d bytes</P>\n",
		uptime, requests, bytes)
	fmt.Fprintf(w, "<H2>Responses by status</H2>\n<UL>\n")
	for _, s := range statuses {
		fmt.Fprintf(w, "<LI>%s: %d\n", s.k, s.v)
	}
	fmt.Fprintf(w, "</UL>\n<H2>Busiest URLs</H2>\n<OL>\n")
	for _, p := range paths {
		fmt.Fprintf(w, "<LI>%s (%d)\n", p.k, p.v)
	}
	if otherPaths > 0 {
		fmt.Fprintf(w, "<LI>(other) (%d)\n", otherPaths)
	}
	fmt.Fprintf(w, "</OL>\n")
	for _, s := range sections {
		fmt.Fprintf(w, "<H2>%s</H2>\n<UL>\n", htmlEscape(s.title))
		for _, item := range s.items() {
			fmt.Fprintf(w, "<LI>%s: %s\n", htmlEscape(item[0]), htmlEscape(item[1]))
		}
		fmt.Fprintf(w, "</UL>\n")
	}
	fmt.Fprintf(w, "</BODY></HTML>\n")
}
