package gateway

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

// recordingWriter is a ResponseWriter that records how the body reached
// it. It has a WriteString on purpose: the handler must not take it (see
// pageBytes).
type recordingWriter struct {
	header       http.Header
	status       int
	writes       [][]byte
	writeStrings int
}

func (w *recordingWriter) Header() http.Header  { return w.header }
func (w *recordingWriter) WriteHeader(code int) { w.status = code }
func (w *recordingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return len(p), nil
}
func (w *recordingWriter) WriteString(s string) (int, error) {
	w.writeStrings++
	return len(s), nil
}

// TestPageIsWrittenOnceWithoutCopy: behind both counting wrappers (the
// access log's and the handler's) the finished page arrives in a single
// Write whose bytes are the page string's own, and the access log still
// counts them.
func TestPageIsWrittenOnceWithoutCopy(t *testing.T) {
	page := strings.Repeat("<LI>row</LI>\n", 30000) // far beyond net/http's buffers
	h := &Handler{App: cgi.HandlerFunc(func(*cgi.Request) (*cgi.Response, error) {
		return &cgi.Response{Status: 200, ContentType: "text/html", Body: cgi.StringBody(page)}, nil
	})}
	var logged syncWriter
	al := NewAccessLog(h, &logged)

	w := &recordingWriter{header: http.Header{}}
	al.ServeHTTP(w, httptest.NewRequest("GET", "http://server/cgi-bin/db2www/any.d2w/report", nil))

	if w.status != 200 || w.writeStrings != 0 || len(w.writes) != 1 {
		t.Fatalf("status %d, %d Write and %d WriteString calls; want 200, 1, 0", w.status, len(w.writes), w.writeStrings)
	}
	if got := w.writes[0]; len(got) != len(page) || unsafe.SliceData(got) != unsafe.StringData(page) {
		t.Errorf("the page was copied on its way out (%d bytes written, page has %d)", len(got), len(page))
	}
	if !strings.Contains(logged.String(), " 200 390000") {
		t.Errorf("access log does not count the body: %q", logged.String())
	}
}

// passThroughApp stands between the handler and the App the way the
// benchmark's traced application does, and keeps the last response.
type passThroughApp struct {
	app  *App
	last atomic.Pointer[cgi.Response]
}

func (a *passThroughApp) ServeCGI(req *cgi.Request) (*cgi.Response, error) {
	return a.ServeCGIContext(context.Background(), req)
}

func (a *passThroughApp) ServeCGIContext(ctx context.Context, req *cgi.Request) (*cgi.Response, error) {
	resp, err := a.app.ServeCGIContext(ctx, req)
	a.last.Store(resp)
	return resp, err
}

// pooledPageRequests are distinct requests of three sizes: the 2 000-row
// report (364 KB), cuts of it by RPT_MAXROWS (14 KB at 80 rows), and
// one-row lookups (0.3 KB).
func pooledPageRequests(t *testing.T, app *App) []string {
	t.Helper()
	const detail = `%define DATABASE = "CELDIAL"
%SQL{SELECT url, title FROM urldb WHERE url = '$(@sq:U)'
%SQL_REPORT{%ROW{<P>$(V1): $(V2)
%}%}
%}
%HTML_REPORT{<TITLE>$(U)</TITLE>
%EXEC_SQL%}
`
	if err := os.WriteFile(filepath.Join(app.MacroDir, "detail.d2w"), []byte(detail), 0o644); err != nil {
		t.Fatal(err)
	}
	const report = "/cgi-bin/db2www/urlquery.d2w/report?DBFIELDS=title&DBFIELDS=description"
	urls := []string{report}
	for i := 0; i < 12; i++ {
		urls = append(urls,
			fmt.Sprintf("%s&RPT_MAXROWS=%d&RPT_STARTROW=%d", report, 70+i, 1+100*i),
			fmt.Sprintf("/cgi-bin/db2www/detail.d2w/report?U=http://www.ibm%d.com/", i))
	}
	return urls
}

// TestPooledPagesNeverBleed: pages are rendered into buffers that the
// handler gives back after its Write, so under concurrency every body must
// still be its own request's page, byte for byte; a response nobody gave
// back must stay intact however many requests follow; and a response the
// handler gave back must read as empty, not as the next request's page.
func TestPooledPagesNeverBleed(t *testing.T) {
	h, app := newTestStack(t)
	db := sqldb.NewDatabase("CELDIAL")
	if err := workload.URLDB(db, 2000, 1); err != nil {
		t.Fatal(err)
	}
	sqldriver.Register("CELDIAL", db) // in place of the stack's 60 rows
	seen := &passThroughApp{app: app}
	h.App = seen
	var logged syncWriter
	root := NewAccessLog(h, &logged)
	get := func(url string) string {
		rec := httptest.NewRecorder()
		root.ServeHTTP(rec, httptest.NewRequest("GET", "http://server"+url, nil))
		if rec.Code != 200 {
			t.Errorf("%s: status %d", url, rec.Code)
		}
		return rec.Body.String()
	}

	urls := pooledPageRequests(t, app)
	oracle := make([]string, len(urls))
	for i, u := range urls {
		oracle[i] = get(u)
		if last := seen.last.Load(); last.Body.Len() != 0 || last.Recycled != nil {
			t.Fatalf("%s: after the handler's hand-back the response still holds %d bytes", u, last.Body.Len())
		}
	}
	if big, mid, small := len(oracle[0]), len(oracle[1]), len(oracle[2]); big < 350_000 || mid < 10_000 || mid > 20_000 || small > 500 {
		t.Fatalf("pages of %d, %d and %d bytes; want about 364 KB, 14 KB and 0.3 KB", big, mid, small)
	}

	// A response taken from the App directly is never handed back.
	held, err := app.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/urlquery.d2w/report",
		QueryString: "DBFIELDS=title&DBFIELDS=description&RPT_MAXROWS=70&RPT_STARTROW=1"})
	if err != nil || held.Body.String() != oracle[1] {
		t.Fatalf("App.ServeCGI: err %v, page differs from the handler's: %v", err, held.Body.String() != oracle[1])
	}

	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// The full report every 25th request, cuts and lookups between.
				k := 1 + (w*7+i)%(len(urls)-1)
				if i%25 == w {
					k = 0
				}
				if got := get(urls[k]); got != oracle[k] {
					t.Errorf("worker %d request %d (%s): %d bytes differ from the page rendered alone (%d bytes)",
						w, i, urls[k], len(got), len(oracle[k]))
					return
				}
			}
		}()
	}
	wg.Wait()
	if held.Body.String() != oracle[1] {
		t.Errorf("a response that was never handed back changed while %d requests ran", workers*each)
	}
}

// TestOversizedPageBufferIsNotPooled: a buffer grown beyond maxPooledPage
// is left to the collector, a smaller one comes back empty.
func TestOversizedPageBufferIsNotPooled(t *testing.T) {
	huge := &pageBuffer{}
	huge.Grow(maxPooledPage + 1)
	huge.Release()
	for i := 0; i < 64; i++ {
		if p := pagePool.Get().(*pageBuffer); p == huge {
			t.Fatalf("a %d-byte buffer went back to the pool", p.Cap())
		}
	}
	small := &pageBuffer{}
	small.Grow(1000)
	small.WriteString("page")
	resp := &cgi.Response{Body: cgi.StringBody("page"), Recycled: small}
	resp.Release()
	resp.Release() // a second hand-back is a no-op
	if resp.Body.Len() != 0 || small.Len() != 0 || small.Cap() < 1000 {
		t.Errorf("after Release: body %q, buffer len %d cap %d", resp.Body, small.Len(), small.Cap())
	}
}

// sharedRecorder is a page that notes each run it is given by reference.
type sharedRecorder struct {
	bytes.Buffer
	shared [][]byte
}

func (r *sharedRecorder) WriteShared(p []byte) (int, error) {
	r.shared = append(r.shared, p)
	return r.Write(p)
}

// memoHitServer is the default server over the 2 000-row table after the
// 364 KB report has been rendered row by row (its page is returned) and
// once more, which keeps the %ROW block on the cached result.
func memoHitServer(t *testing.T) (*Server, string) {
	t.Helper()
	cfg := DefaultServerConfig()
	cfg.Macros = filepath.Join(repoRoot(t), "testdata", "macros")
	cfg.Dataset = "urldb:2000:1"
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rowByRow := get(t, srv.Handler(), bigReport)
	if fill := get(t, srv.Handler(), bigReport); fill != rowByRow {
		t.Fatal("the memo fill's page differs from the row-by-row rendering")
	}
	return srv, rowByRow
}

const bigReport = "/cgi-bin/db2www/urlquery.d2w/report?DBFIELDS=title&DBFIELDS=description"

// memoRun renders the big report straight from the engine, as the App
// would, and returns the run it was given by reference: the memo's bytes.
func memoRun(t *testing.T, srv *Server) []byte {
	t.Helper()
	m, _, _, err := srv.app.loadMacro("urlquery.d2w")
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := (&cgi.Request{Method: "GET", QueryString: "DBFIELDS=title&DBFIELDS=description"}).Inputs()
	if err != nil {
		t.Fatal(err)
	}
	var page sharedRecorder
	if err := srv.app.Engine.Run(m, core.ModeReport, inputs, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.shared) != 1 || len(page.shared[0]) < 350_000 {
		t.Fatalf("the engine handed over %d runs by reference; want the one %%ROW block", len(page.shared))
	}
	return page.shared[0]
}

// TestMemoHitIsWrittenByReference: on a memo hit the %ROW block reaches the
// ResponseWriter as the memo's own bytes, between the page's head and tail,
// and the page is the one rendered row by row, every byte of it counted by
// the access log.
func TestMemoHitIsWrittenByReference(t *testing.T) {
	srv, rowByRow := memoHitServer(t)
	var logged syncWriter
	srv.root.out = &logged
	w := &recordingWriter{header: http.Header{}}
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "http://localhost"+bigReport, nil))
	if render := srv.Traces.Snapshot()[0].SQL[0].Render; w.status != 200 || render != "memo" {
		t.Fatalf("status %d, render=%q; want 200 and a memo hit", w.status, render)
	}

	memo := memoRun(t, srv)
	if w.writeStrings != 0 || len(w.writes) != 3 {
		t.Fatalf("%d Write and %d WriteString calls; want 3 Writes (head, %%ROW block, tail)", len(w.writes), w.writeStrings)
	}
	if block := w.writes[1]; len(block) != len(memo) || unsafe.SliceData(block) != unsafe.SliceData(memo) {
		t.Errorf("the %%ROW block (%d bytes) was not written from the memo's own %d bytes", len(block), len(memo))
	}
	if page := string(bytes.Join(w.writes, nil)); page != rowByRow {
		t.Errorf("the memo hit's page (%d bytes) differs from the row-by-row rendering (%d bytes)", len(page), len(rowByRow))
	}
	if want := fmt.Sprintf(" 200 %d ", len(rowByRow)); !strings.Contains(logged.String(), want) {
		t.Errorf("access log does not count the page's %d bytes: %q", len(rowByRow), logged.String())
	}
}

// TestReleasedPageBufferHoldsNoRun: the buffer a memo hit was rendered into
// holds the memo by reference until the hand-back, and no run after it, so
// a pooled buffer never keeps a memo alive that its cache has dropped.
func TestReleasedPageBufferHoldsNoRun(t *testing.T) {
	srv, rowByRow := memoHitServer(t)
	resp, err := srv.app.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/urlquery.d2w/report",
		QueryString: "DBFIELDS=title&DBFIELDS=description"})
	if err != nil || resp.Body.String() != rowByRow {
		t.Fatalf("err %v, or the memo hit's page differs from the row-by-row rendering", err)
	}
	buf := resp.Recycled.(*pageBuffer)
	shared, runs := buf.shared[:cap(buf.shared)], buf.runs[:cap(buf.runs)]
	if len(buf.shared) != 1 || len(buf.runs) != 3 {
		t.Fatalf("the page holds %d shared runs in %d runs; want the %%ROW block between head and tail", len(buf.shared), len(buf.runs))
	}
	resp.Release()
	for i, s := range shared {
		if s.run != nil {
			t.Errorf("after Release the buffer still holds shared run %d (%d bytes)", i, len(s.run))
		}
	}
	for i, r := range runs {
		if r != nil {
			t.Errorf("after Release the buffer still holds run %d (%d bytes)", i, len(r))
		}
	}
	if resp.Body.Len() != 0 {
		t.Errorf("after Release the response still holds %d bytes", resp.Body.Len())
	}
}
