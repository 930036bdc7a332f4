package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/macrolint"
	"db2www/internal/obs"
)

// App is the DB2WWW CGI application: given a CGI request whose PATH_INFO
// names a macro file and a command (input or report), it loads the macro
// and runs the engine, producing the CGI response. The same App backs the
// in-process gateway, the cmd/db2www executable, and the benchmarks.
type App struct {
	// MacroDir is the root directory containing macro files. PATH_INFO
	// macro names resolve strictly inside it.
	MacroDir string
	// Engine processes macros. Required.
	Engine *core.Engine
	// CacheMacros enables the parsed-macro cache (keyed by path; an entry
	// holds while the file and every %INCLUDE it resolved keep their
	// mtime and size). Off, every request re-reads and re-parses the file — the
	// faithful CGI process model; BenchmarkA2_ParseCache measures the delta.
	CacheMacros bool
	// Lint, when set, runs the macrolint analyzers over every macro as
	// it is loaded (cache misses only, so an unchanged macro is linted
	// once) and exports the findings to the metrics registry.
	Lint *macrolint.Linter
	// LintStrict refuses to serve a macro whose lint run produced
	// error-severity findings: the request gets a 500 instead of an
	// injectable or broken page.
	LintStrict bool

	macroHits, macroMisses atomic.Int64

	mu    sync.Mutex
	cache map[string]cachedMacro
}

// Lint-on-load outcomes. What the loads found is
// db2www_macrolint_findings_total, which the preflight also feeds.
var (
	mLintLoads = obs.Default.Counter("db2www_macrolint_loads_total",
		"macro loads linted: parsed-macro cache misses")
	mLintRefused = obs.Default.Counter("db2www_macrolint_refused_total",
		"macro loads refused for an error-severity finding under -lint strict")
)

// MacroCacheStats reports how many macro loads were served from the
// parsed-macro cache versus read and parsed from disk. With CacheMacros
// off every load counts as a miss, so the ratio doubles as a measure of
// what the cache would save.
func (a *App) MacroCacheStats() (hits, misses int64) {
	return a.macroHits.Load(), a.macroMisses.Load()
}

// fileStamp is what the parsed-macro cache remembers of a file it read:
// a later os.Stat that differs, or fails, means the file was edited or
// removed.
type fileStamp struct {
	path  string
	mtime int64
	size  int64
}

func stampOf(path string, st os.FileInfo) fileStamp {
	return fileStamp{path: path, mtime: st.ModTime().UnixNano(), size: st.Size()}
}

// cachedMacro is a parsed macro with the stamps of the file it came from
// and of every %INCLUDE the parse resolved.
type cachedMacro struct {
	file     fileStamp
	includes []fileStamp
	macro    *core.Macro
}

// includesUnchanged stats every include the entry was parsed from. A
// macro without includes — the common case — costs nothing here.
func (c cachedMacro) includesUnchanged() bool {
	for _, inc := range c.includes {
		st, err := os.Stat(inc.path)
		if err != nil || stampOf(inc.path, st) != inc {
			return false
		}
	}
	return true
}

// ServeCGI implements cgi.Handler.
func (a *App) ServeCGI(req *cgi.Request) (*cgi.Response, error) {
	return a.ServeCGIContext(context.Background(), req)
}

// ServeCGIContext is ServeCGI with the request context: the gateway's
// trace rides it into the engine, and macro loading becomes the trace's
// "parse" span (the trace notes whether the parsed-macro cache served it).
func (a *App) ServeCGIContext(ctx context.Context, req *cgi.Request) (*cgi.Response, error) {
	tr := obs.TraceFrom(ctx)
	macroName, cmdName, err := cgi.SplitPathInfo(req.PathInfo)
	if err != nil {
		return errorPageTrace(400, "Bad request", err.Error(), tr), nil
	}
	mode, err := core.ParseMode(cmdName)
	if err != nil {
		return errorPageTrace(400, "Bad request", err.Error(), tr), nil
	}
	parseSpan := tr.Start(obs.SpanParse, "")
	m, status, cached, err := a.loadMacro(macroName)
	parseSpan.End()
	// The app is the authority on which macro a request resolved to; the
	// request's record and the SLO windows attribute by this name (set
	// even on a failed load, so error bursts land on the macro that caused
	// them).
	tr.SetMacro(macroName, cached)
	if err != nil {
		if status == 404 {
			return errorPageTrace(404, "Macro not found", err.Error(), tr), nil
		}
		return errorPageTrace(500, "Macro error", err.Error(), tr), nil
	}
	inputs, err := req.Inputs()
	if err != nil {
		return errorPageTrace(400, "Bad request", err.Error(), tr), nil
	}
	// The page is rendered into a buffer the server keeps: Body is a view of
	// its bytes and of the shared runs it took (a memoised %ROW block), not a
	// copy, and a failed run just leaves the buffer to the collector.
	buf := pagePool.Get().(*pageBuffer)
	if err := a.Engine.RunContext(ctx, m, mode, inputs, buf); err != nil {
		status := 500
		var ce *core.Error
		if errors.As(err, &ce) && ce.Input {
			status = 400 // the request supplied what failed
		}
		return errorPageTrace(status, "Macro processing failed", err.Error(), tr), nil
	}
	return &cgi.Response{
		Status:      200,
		ContentType: "text/html",
		Body:        buf.body(),
		Recycled:    buf,
	}, nil
}

// pageBuffer is the writer a page is rendered into (its Grow is the size
// hint core's report renderer looks for). A big_report page is 364 KB of
// the 742 KB its request used to allocate, with a 3 MB live heap: a fresh
// buffer per page was a collection every four or five requests. Most of
// such a page, on a cache hit, is the %ROW block kept on the cached result:
// that run the buffer takes by reference (core.SharedWriter), so the page
// is its own bytes with the shared runs between them.
type pageBuffer struct {
	bytes.Buffer
	shared []sharedRun
	runs   [][]byte // body's result, kept for the next page
}

// sharedRun is a run the page holds by reference, and the offset in the
// buffer's own bytes it goes at.
type sharedRun struct {
	at  int
	run []byte
}

var _ core.SharedWriter = (*pageBuffer)(nil)

// WriteShared implements core.SharedWriter.
func (p *pageBuffer) WriteShared(run []byte) (int, error) {
	if len(run) > 0 {
		p.shared = append(p.shared, sharedRun{at: p.Len(), run: run})
	}
	return len(run), nil
}

// body is the page in order: the buffer's bytes cut at each shared run's
// offset, the shared runs between the pieces. A page without shared runs is
// one run.
func (p *pageBuffer) body() cgi.Body {
	own, at := p.Bytes(), 0
	p.runs = p.runs[:0]
	for _, s := range p.shared {
		if s.at > at {
			p.runs = append(p.runs, own[at:s.at])
		}
		p.runs = append(p.runs, s.run)
		at = s.at
	}
	if at < len(own) {
		p.runs = append(p.runs, own[at:])
	}
	return cgi.BodyOf(p.runs)
}

// maxPooledPage is the largest buffer that goes back to the pool, so that
// one huge report does not stay pinned.
const maxPooledPage = 4 << 20

var pagePool = sync.Pool{New: func() any { return new(pageBuffer) }}

// Release implements the hand-back of cgi.Response: the caller is done
// with every byte of the page, so the next request may overwrite them. The
// buffer lets go of the shared runs first, so that a pooled buffer never
// keeps a memo alive that its cache has dropped.
func (p *pageBuffer) Release() {
	clear(p.shared)
	clear(p.runs)
	p.shared, p.runs = p.shared[:0], p.runs[:0]
	if p.Cap() <= maxPooledPage {
		p.Reset()
		pagePool.Put(p)
	}
}

// loadMacro resolves, reads, and parses a macro file, refusing any path
// that escapes MacroDir (Section 5's security posture: the gateway must
// not become a file oracle). cached reports whether the parsed-macro
// cache served it.
func (a *App) loadMacro(name string) (m *core.Macro, status int, cached bool, err error) {
	rel, full, err := core.InsideDir(a.MacroDir, name)
	if err != nil {
		return nil, 404, false, fmt.Errorf("macro name %w", err)
	}
	st, err := os.Stat(full)
	if err != nil || st.IsDir() {
		return nil, 404, false, fmt.Errorf("no such macro %q", name)
	}
	if a.CacheMacros {
		a.mu.Lock()
		c, ok := a.cache[full]
		a.mu.Unlock()
		if ok && c.file == stampOf(full, st) && c.includesUnchanged() {
			a.macroHits.Add(1)
			return c.macro, 200, true, nil
		}
	}
	a.macroMisses.Add(1)
	src, err := os.ReadFile(full)
	if err != nil {
		return nil, 404, false, fmt.Errorf("cannot read macro %q: %v", name, err)
	}
	var includes []fileStamp
	m, err = core.ParseWithIncludes(rel, string(src), a.includeResolver(&includes))
	if err != nil {
		return nil, 500, false, err
	}
	if a.Lint != nil {
		diags := a.Lint.LintMacro(m, rel)
		macrolint.Record(diags)
		mLintLoads.Inc()
		for _, d := range diags {
			if a.LintStrict && d.Severity == macrolint.SevError {
				mLintRefused.Inc()
				return nil, 500, false, fmt.Errorf("macro refused by lint: %s", d)
			}
		}
	}
	if a.CacheMacros {
		a.mu.Lock()
		if a.cache == nil {
			a.cache = map[string]cachedMacro{}
		}
		a.cache[full] = cachedMacro{file: stampOf(full, st), includes: includes, macro: m}
		a.mu.Unlock()
	}
	return m, 200, false, nil
}

// includeResolver loads %INCLUDE targets from inside MacroDir, with the
// same traversal protection as top-level macro names, and appends the
// stamp of each file it read to seen (taken before the read, so an edit
// racing the read shows as a mismatch later).
func (a *App) includeResolver(seen *[]fileStamp) core.IncludeResolver {
	return func(name string) (string, error) {
		_, full, err := core.InsideDir(a.MacroDir, name)
		if err != nil {
			return "", fmt.Errorf("include %w", err)
		}
		st, err := os.Stat(full)
		if err != nil {
			return "", err
		}
		src, err := os.ReadFile(full)
		if err != nil {
			return "", err
		}
		*seen = append(*seen, stampOf(full, st))
		return string(src), nil
	}
}

// errorPageTrace builds a minimal 1996-style error document, with a
// trace-ID footer when the request is traced, so the error a user
// screenshots names the trace the operator can pull from the ring or the
// logs.
func errorPageTrace(status int, title, detail string, tr *obs.Trace) *cgi.Response {
	footer := ""
	if tr != nil && tr.ID != "" {
		footer = fmt.Sprintf("<P><SMALL>trace %s</SMALL></P>\n", htmlEscape(tr.ID))
	}
	body := fmt.Sprintf(
		"<HTML><HEAD><TITLE>%s</TITLE></HEAD>\n<BODY><H1>%s</H1>\n<P>%s</P>\n%s</BODY></HTML>\n",
		title, title, htmlEscape(detail), footer)
	return &cgi.Response{
		Status:      status,
		ContentType: "text/html",
		Body:        cgi.StringBody(body),
	}
}

var htmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

func htmlEscape(s string) string { return htmlEscaper.Replace(s) }
