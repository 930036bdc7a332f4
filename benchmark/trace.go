package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/gateway"
	"db2www/internal/obs"
)

// Span names, one per boundary the benchmark can wrap from outside.
const (
	spanHTTP    = "http"             // client: request sent → body read
	spanHandler = "gateway.handler"  // AccessLog + Handler.ServeHTTP
	spanApp     = "gateway.app"      // App.ServeCGIContext
	spanConnect = "provider.connect" // DBProvider.Connect
	spanExecute = "provider.execute" // DBConn.ExecuteContext
	spanCommit  = "provider.commit"  // Begin / Commit / Rollback
	spanClose   = "provider.close"   // DBConn.Close
)

// span is one timed call into a layer. Spans of one request share Trace,
// the request's X-Trace-Id; Parent is the ID of the span that was open
// when this one began, 0 for the root.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	SQL    string `json:"sql,omitempty"`
	Rows   int    `json:"rows,omitempty"`
}

// tracedRequest is what the wrappers saw of one request: its spans, and
// the inputs the replays need.
type tracedRequest struct {
	spans   []span
	cgi     *cgi.Request
	stmts   []string
	results []*core.SQLResult // aligned with stmts; nil when not captured
	// slowdown is the host's at the start of the request's block; execUS
	// and parseUS are the time the replay of stmts took on a bare
	// sqldb.Session and in sqldb.Parse alone, corrected by it.
	slowdown, execUS, parseUS float64
}

// tracer records the spans of one request at a time: the traced run
// uses a single connection, so the open spans form a stack and a span's
// parent is the one below it. The mutex orders the client goroutine and
// the server's; it is never contended.
type tracer struct {
	mu       sync.Mutex
	on       bool
	epoch    time.Time
	nextID   int
	open     []int // IDs of the open spans, innermost last
	cur      *tracedRequest
	curID    string
	keepRows int // result rows still to be captured for the render replay
	done     []*tracedRequest
	mismatch int // spans that arrived under another trace ID than the client sent
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

func (t *tracer) setEnabled(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span named name. traceID is the trace identifier as the
// calling layer sees it ("" where the layer is handed none); it must be
// the one the client sent, which is how the run proves the identifier
// threads through every layer.
func (t *tracer) begin(name, traceID string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if name == spanHTTP {
		t.cur, t.curID, t.open = &tracedRequest{}, traceID, t.open[:0]
	}
	if t.cur == nil {
		return 0
	}
	if traceID != "" && traceID != t.curID {
		t.mismatch++
	}
	t.nextID++
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.cur.spans = append(t.cur.spans, span{Trace: t.curID, ID: t.nextID, Parent: parent, Name: name, Start: now})
	t.open = append(t.open, t.nextID)
	return t.nextID
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int, sql string, rows int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil || len(t.open) == 0 || t.open[len(t.open)-1] != id {
		t.mismatch++
		return
	}
	t.open = t.open[:len(t.open)-1]
	for i := len(t.cur.spans) - 1; i >= 0; i-- {
		if s := &t.cur.spans[i]; s.ID == id {
			s.End, s.SQL, s.Rows = now, sql, rows
			break
		}
	}
	if len(t.open) == 0 {
		t.done = append(t.done, t.cur)
		t.cur = nil
	}
}

// noteStatement keeps a statement of the current request for the sqldb
// replay, and its result for the render replay while the row budget
// lasts.
func (t *tracer) noteStatement(sql string, res *core.SQLResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		return
	}
	t.cur.stmts = append(t.cur.stmts, sql)
	if res != nil && t.keepRows > 0 {
		t.keepRows -= len(res.Rows) + 1
		t.cur.results = append(t.cur.results, res)
	} else {
		t.cur.results = append(t.cur.results, nil)
	}
}

func (t *tracer) noteCGI(req *cgi.Request) {
	t.mu.Lock()
	if t.cur != nil {
		t.cur.cgi = req
	}
	t.mu.Unlock()
}

// tracedHandler spans an http.Handler.
type tracedHandler struct {
	next http.Handler
	t    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.t.enabled() {
		h.next.ServeHTTP(w, r)
		return
	}
	id := h.t.begin(spanHandler, r.Header.Get("X-Trace-Id"))
	h.next.ServeHTTP(w, r)
	h.t.end(id, "", 0)
}

// tracedApp spans the CGI application. It implements ServeCGIContext as
// *gateway.App does, so gateway.Handler still hands it the request
// context and the request trace reaches the engine.
type tracedApp struct {
	app *gateway.App
	t   *tracer
}

func (a tracedApp) ServeCGI(req *cgi.Request) (*cgi.Response, error) {
	return a.ServeCGIContext(context.Background(), req)
}

func (a tracedApp) ServeCGIContext(ctx context.Context, req *cgi.Request) (*cgi.Response, error) {
	if !a.t.enabled() {
		return a.app.ServeCGIContext(ctx, req)
	}
	traceID := ""
	if tr := obs.TraceFrom(ctx); tr != nil {
		traceID = tr.ID
	}
	id := a.t.begin(spanApp, traceID)
	a.t.noteCGI(req)
	resp, err := a.app.ServeCGIContext(ctx, req)
	a.t.end(id, "", 0)
	return resp, err
}

// tracedProvider spans the engine's calls into the SQL provider.
type tracedProvider struct {
	inner core.DBProvider
	t     *tracer
}

func (p tracedProvider) Connect(database, login, password string) (core.DBConn, error) {
	if !p.t.enabled() {
		return p.inner.Connect(database, login, password)
	}
	id := p.t.begin(spanConnect, "")
	conn, err := p.inner.Connect(database, login, password)
	p.t.end(id, "", 0)
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: conn, t: p.t}, nil
}

type tracedConn struct {
	inner core.DBConn
	t     *tracer
}

func (c *tracedConn) Execute(sql string) (*core.SQLResult, error) {
	return c.ExecuteContext(context.Background(), sql)
}

func (c *tracedConn) ExecuteContext(ctx context.Context, sql string) (*core.SQLResult, error) {
	traceID := ""
	if tr := obs.TraceFrom(ctx); tr != nil {
		traceID = tr.ID
	}
	id := c.t.begin(spanExecute, traceID)
	var res *core.SQLResult
	var err error
	if cc, ok := c.inner.(core.ContextDBConn); ok {
		res, err = cc.ExecuteContext(ctx, sql)
	} else {
		res, err = c.inner.Execute(sql)
	}
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	c.t.end(id, sql, rows)
	c.t.noteStatement(sql, res)
	return res, err
}

func (c *tracedConn) spanned(name string, call func() error) error {
	id := c.t.begin(name, "")
	err := call()
	c.t.end(id, "", 0)
	return err
}

func (c *tracedConn) Begin() error    { return c.spanned(spanCommit, c.inner.Begin) }
func (c *tracedConn) Commit() error   { return c.spanned(spanCommit, c.inner.Commit) }
func (c *tracedConn) Rollback() error { return c.spanned(spanCommit, c.inner.Rollback) }
func (c *tracedConn) Close() error    { return c.spanned(spanClose, c.inner.Close) }

// selfTimes returns, for the spans of one request, each span's duration
// minus the time its children cover, keyed by span ID, and the root
// span's duration. It rejects a tree in which the arithmetic would not
// mean that: no single root, a child outside its parent's interval, or
// children of one span that overlap.
func selfTimes(spans []span) (self map[int]int64, root int64, err error) {
	byID := map[int]span{}
	children := map[int][]span{}
	roots := 0
	for _, s := range spans {
		if s.End < s.Start {
			return nil, 0, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
		if s.Parent == 0 {
			roots++
			root = s.End - s.Start
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	if roots != 1 {
		return nil, 0, fmt.Errorf("%d root spans, want 1", roots)
	}
	self = map[int]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		for i, k := range kids {
			if k.Start < s.Start || k.End > s.End {
				return nil, 0, fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", k.ID, k.Name, s.ID, s.Name)
			}
			if i > 0 && k.Start < kids[i-1].End {
				return nil, 0, fmt.Errorf("spans %d and %d, children of %d (%s), overlap", kids[i-1].ID, k.ID, s.ID, s.Name)
			}
			covered += k.End - k.Start
		}
		self[s.ID] = s.End - s.Start - covered
	}
	for _, s := range spans {
		if _, ok := byID[s.Parent]; s.Parent != 0 && !ok {
			return nil, 0, fmt.Errorf("span %d (%s) names a parent %d that was not recorded", s.ID, s.Name, s.Parent)
		}
	}
	return self, root, nil
}

// selfByName sums the self times of one request's spans by span name.
func selfByName(spans []span) (map[string]int64, int64, error) {
	self, root, err := selfTimes(spans)
	if err != nil {
		return nil, 0, err
	}
	byName := map[string]int64{}
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
	}
	return byName, root, nil
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, reqs []*tracedRequest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range reqs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
