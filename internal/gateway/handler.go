package gateway

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"db2www/internal/cgi"
	"db2www/internal/flight"
	"db2www/internal/obs"
)

// defaultCGITimeout bounds a CGI invocation when Handler.CGITimeout is
// zero, as under gatewayd's -cgi.
const defaultCGITimeout = 30 * time.Second

// Handler is the Web-server half of Figure 4: it serves static documents
// and routes /cgi-bin/{program}/{macro}/{cmd} URLs to a CGI application —
// in-process through App, or as a real subprocess when CGIProgram is set.
type Handler struct {
	// App handles CGI requests in-process. Required unless CGIProgram is
	// set.
	App cgi.Handler
	// DocRoot, when non-empty, serves static files for non-CGI paths
	// (an organisation's ordinary home pages).
	DocRoot string
	// Authenticate, when non-nil, guards CGI paths with HTTP basic
	// authentication (Section 5: DB2WWW delegates security to the web
	// server and DBMS).
	Authenticate func(user, password string) bool

	// CGIProgram, when non-empty, is the path of a CGI executable to
	// fork/exec per request instead of calling App — the true CGI
	// process model. CGIEnv is appended to its environment and
	// CGITimeout bounds each invocation (default defaultCGITimeout).
	CGIProgram string
	CGIEnv     []string
	CGITimeout time.Duration

	// TraceRing, when non-nil, receives every finished request trace;
	// /server-status renders its contents (AccessLog.Traces).
	TraceRing *obs.Ring
	// Flight, when non-nil, feeds every finished request through the
	// flight recorder's tail sampler, SLO windows, and anomaly trigger.
	Flight *flight.Recorder
	// Logf receives server-side error detail (with the trace ID) that is
	// deliberately kept out of client responses. Defaults to log.Printf.
	Logf func(format string, args ...any)
}

// The URL prefix that triggers CGI dispatch, and the basic-auth realm.
const (
	scriptName = "/cgi-bin/db2www"
	authRealm  = "DB2WWW"
)

// contextCGIHandler is the optional context-aware extension of
// cgi.Handler; App implements it, and the handler uses it to thread the
// request trace into macro processing.
type contextCGIHandler interface {
	ServeCGIContext(ctx context.Context, req *cgi.Request) (*cgi.Response, error)
}

// Request-path series are resolved once; only the per-status counter
// needs a registry lookup per request (the status is dynamic).
var (
	mInFlight = obs.Default.Gauge("db2www_http_in_flight",
		"requests currently being served")
	mRequestSeconds = obs.Default.Histogram("db2www_http_request_seconds",
		"request latency from gateway receipt to response completion", nil)
	mResponseBytes = obs.Default.Counter("db2www_http_response_bytes_total",
		"response body bytes written")
	mRequests = obs.Default.CounterVec("db2www_http_requests_total",
		"requests served, by response status", "code")
)

// statusLabels are the texts of the status codes net/http lets a handler
// write, 100 to 999, so that counting a request by its status makes no
// string.
var statusLabels = func() (l [1000]string) {
	for code := 100; code < len(l); code++ {
		l[code] = strconv.Itoa(code)
	}
	return l
}()

func statusLabel(code int) string {
	if code >= 100 && code < len(statusLabels) {
		return statusLabels[code]
	}
	return strconv.Itoa(code)
}

// beginRequest gives a request what the middleware of this package needs
// of it: a writer that counts the response and, while instrumentation is
// on, carries its record — the ID taken from a valid incoming X-Trace-Id
// header (so a client or an upstream proxy can stitch its own correlation)
// or minted here, echoed on the X-Trace-Id response header. A record the
// request's context already carries is that record. Whichever of AccessLog
// and Handler meets the request first does this; the other finds it done
// on the writer it is handed. The record reaches the engine on the context
// serveApp gives it.
func beginRequest(w http.ResponseWriter, r *http.Request) (*countingWriter, *obs.Trace) {
	if cw, ok := w.(*countingWriter); ok {
		return cw, cw.tr
	}
	cw := &countingWriter{ResponseWriter: w, tr: obs.TraceFrom(r.Context())}
	if cw.tr == nil && obs.Enabled() {
		id := obs.SanitizeTraceID(r.Header.Get("X-Trace-Id"))
		if id == "" {
			id = obs.NewTraceID()
		}
		cw.tr = obs.NewTrace(id)
		cw.tr.Method, cw.tr.Path = r.Method, r.URL.Path
		w.Header().Set("X-Trace-Id", id)
	}
	return cw, cw.tr
}

// ServeHTTP implements http.Handler. While instrumentation is on, every
// request fills one record (see beginRequest) and, once finished, the
// record goes to the sinks — the flight recorder, which keeps every slow
// request, and the trace ring — and the request count, latency, response
// bytes and in-flight gauge land in the obs registry. Nothing is written
// to the record once the first sink has it.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw, tr := beginRequest(w, r)
	if tr == nil {
		h.route(cw, r)
		return
	}
	mInFlight.Add(1)
	defer mInFlight.Add(-1)

	h.route(cw, r)
	tr.Finish(cw.code(), time.Since(tr.Begun))
	mRequests.Counter(statusLabel(tr.Status)).Inc()
	mRequestSeconds.Observe(tr.Total.Seconds())
	mResponseBytes.Add(cw.bytes)
	h.Flight.Observe(tr)
	h.TraceRing.Add(tr)
}

// route dispatches between CGI, static files, and 404.
func (h *Handler) route(w *countingWriter, r *http.Request) {
	if r.URL.Path == scriptName || strings.HasPrefix(r.URL.Path, scriptName+"/") ||
		strings.HasPrefix(r.URL.Path, scriptName+".exe/") {
		h.serveCGI(w, r)
		return
	}
	if h.DocRoot != "" {
		http.FileServer(http.Dir(h.DocRoot)).ServeHTTP(w, r)
		return
	}
	http.NotFound(w, r)
}

// logf reports server-side detail, tagged with the request's trace ID so
// the operator can correlate it with the access log, the trace ring, and
// the line the client quotes back.
func (h *Handler) logf(tr *obs.Trace, r *http.Request, format string, args ...any) {
	logf := h.Logf
	if logf == nil {
		logf = log.Printf
	}
	id := "-"
	if tr != nil {
		id = tr.ID
	}
	logf("gateway: trace=%s %s %s: %s", id, r.Method, r.URL.Path,
		fmt.Sprintf(format, args...))
}

func (h *Handler) serveCGI(w *countingWriter, r *http.Request) {
	if h.Authenticate != nil {
		user, pass, ok := r.BasicAuth()
		if !ok || !h.Authenticate(user, pass) {
			w.Header().Set("WWW-Authenticate", fmt.Sprintf("Basic realm=%q", authRealm))
			http.Error(w, "authorization required", http.StatusUnauthorized)
			return
		}
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodPost:
	default:
		// Figure 4 has two flows, GET's query string and POST's body: any
		// other method is refused here, before a macro is looked up or a
		// process started.
		w.Header().Set("Allow", "GET, HEAD, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	pathInfo := strings.TrimPrefix(r.URL.Path, scriptName+".exe")
	if pathInfo == r.URL.Path {
		pathInfo = strings.TrimPrefix(r.URL.Path, scriptName)
	}
	req, err := h.buildRequest(w, r, pathInfo)
	if err != nil {
		// The detail (an unreadable body, a malformed header) is logged
		// with the trace ID; the client gets a generic message — internal
		// error strings are not part of the response contract.
		h.logf(w.tr, r, "rejecting request: %v", err)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, "request entity too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "bad request", http.StatusBadRequest)
		}
		return
	}
	var resp *cgi.Response
	switch {
	case h.CGIProgram != "":
		timeout := h.CGITimeout
		if timeout == 0 {
			timeout = defaultCGITimeout
		}
		resp, err = cgi.InvokeProcess(h.CGIProgram, nil, req, h.CGIEnv, timeout)
	case h.App != nil:
		resp, err = h.serveApp(r, w.tr, req)
	default:
		h.logf(w.tr, r, "no CGI application configured")
		http.Error(w, "server misconfigured", http.StatusInternalServerError)
		return
	}
	if err != nil {
		// Distinct status codes per failure class; raw error text stays
		// server-side.
		h.logf(w.tr, r, "CGI failure: %v", err)
		if errors.Is(err, cgi.ErrTimeout) {
			http.Error(w, "gateway timeout", http.StatusGatewayTimeout)
		} else {
			http.Error(w, "gateway error", http.StatusBadGateway)
		}
		return
	}
	w.Header().Set("Content-Type", resp.ContentType)
	w.WriteHeader(resp.Status)
	// Each run of the page is one Write of its own bytes (cgi.Body.WriteTo):
	// a report served from a memo goes out as its head, the %ROW block the
	// cached result keeps, and its tail, none of them copied. No
	// Content-Length is set, although the length is known: with it a large
	// page is complete on the client while this handler is still closing its
	// record and log line, and a client that pairs its own timing with the
	// server's (benchmark/trace.go does) sees the two overlap. The chunked
	// terminator is only sent once the handler has returned.
	_, _ = resp.Body.WriteTo(w)
	// WriteTo has returned, so the writer holds no reference to the page
	// (io.Writer): a response rendered into a pooled buffer gives it back.
	resp.Release()
}

// serveApp runs the in-process application. A panic in it is this
// request's 500, not the connection's end: the value and stack are logged
// with the trace ID, and ServeHTTP finishes the record as for any 5xx (the
// flight recorder keeps it as kept:error). The page buffer the run had
// taken is left to the collector, never handed back to the pool.
func (h *Handler) serveApp(r *http.Request, tr *obs.Trace, req *cgi.Request) (resp *cgi.Response, err error) {
	defer func() {
		if v := recover(); v != nil {
			h.logf(tr, r, "panic: %v\n%s", v, debug.Stack())
			resp, err = errorPageTrace(http.StatusInternalServerError, "Internal server error",
				"the request could not be processed", tr), nil
		}
	}()
	if ch, ok := h.App.(contextCGIHandler); ok {
		ctx := r.Context()
		if tr != nil && obs.TraceFrom(ctx) != tr {
			ctx = obs.WithTrace(ctx, tr)
		}
		return ch.ServeCGIContext(ctx, req)
	}
	return h.App.ServeCGI(req)
}

// maxBodyBytes bounds a POSTed form. A longer body is refused (413), not
// cut: a macro must never run on half a form.
const maxBodyBytes = 1 << 20

// buildRequest translates an HTTP request into the CGI request contract.
func (h *Handler) buildRequest(w http.ResponseWriter, r *http.Request, pathInfo string) (*cgi.Request, error) {
	req := &cgi.Request{
		Method:      r.Method,
		ScriptName:  scriptName,
		PathInfo:    pathInfo,
		QueryString: r.URL.RawQuery,
		ContentType: r.Header.Get("Content-Type"),
	}
	if host, port, err := net.SplitHostPort(r.Host); err == nil {
		req.ServerName = host
		if n, err := strconv.Atoi(port); err == nil {
			req.ServerPort = n
		}
	} else {
		req.ServerName = r.Host
		req.ServerPort = 80
	}
	req.RemoteAddr = r.RemoteAddr
	if user, _, ok := r.BasicAuth(); ok {
		req.AuthUser = user
	}
	if r.Method == http.MethodPost {
		body, err := readBody(w, r)
		if err != nil {
			return nil, fmt.Errorf("reading request body: %w", err)
		}
		req.Body = body
	}
	return req, nil
}

// readBody reads a POSTed form, at most maxBodyBytes of it. A body that
// states its length within the bound is read into one buffer of that
// length, and the string is that buffer: nothing else holds it. A body of
// unstated length grows as it is read.
func readBody(w http.ResponseWriter, r *http.Request) (string, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	n := r.ContentLength
	if n < 0 || n > maxBodyBytes {
		b, err := io.ReadAll(body)
		return string(b), err
	}
	if n == 0 {
		return "", nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(body, buf); err != nil {
		return "", err
	}
	return unsafe.String(&buf[0], len(buf)), nil
}

// BasicAuthUsers builds an Authenticate callback from a fixed user table.
// Comparison is constant-time.
func BasicAuthUsers(users map[string]string) func(user, password string) bool {
	return func(user, password string) bool {
		want, ok := users[user]
		if !ok {
			return false
		}
		return subtle.ConstantTimeCompare([]byte(want), []byte(password)) == 1
	}
}
