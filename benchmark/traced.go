package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/macrolint"
	"db2www/internal/sqldb"
	datasets "db2www/internal/workload"
)

const (
	// The in-process passes alternate untraced and traced blocks, so that
	// drift of the host falls on both alike.
	blockPairs = 4
	// Result rows kept for the render replay; a big_report page has 2 000.
	replayRowBudget = 100_000
	// Repeats of the replays that have one input per workload.
	macroReplays = 50
)

// budgetLayers are the metrics that split a request's round trip without
// remainder: the self times of the spans, with provider.execute split by
// the sqldb replay.
var budgetLayers = [...]string{
	"http.self_us", "gateway.handler.self_us", "gateway.app.self_us",
	"provider.connect_us", "provider.execute.self_us", "sqldb.exec_us",
}

// counters are the engine's and the application's own cumulative
// counts, read through their public snapshot calls.
type counters struct {
	rowsRead, seqScans, indexScans float64
	planHits, planMisses           float64
	conflictRetries                float64
	macroHits, macroMisses         float64
}

func (s *stack) counters() counters {
	var c counters
	for _, ts := range s.db.TableStatsSnapshot() {
		c.rowsRead += float64(ts.RowsRead)
		c.seqScans += float64(ts.SeqScans)
		c.indexScans += float64(ts.IndexScans)
	}
	pc := s.db.PlanCacheStats()
	c.planHits, c.planMisses = float64(pc.Hits), float64(pc.Misses)
	c.conflictRetries = float64(s.db.TxnStats().ConflictRetries)
	hits, misses := s.app.MacroCacheStats()
	c.macroHits, c.macroMisses = float64(hits), float64(misses)
	return c
}

// accumulate adds after − before to c.
func (c *counters) accumulate(before, after counters) {
	c.rowsRead += after.rowsRead - before.rowsRead
	c.seqScans += after.seqScans - before.seqScans
	c.indexScans += after.indexScans - before.indexScans
	c.planHits += after.planHits - before.planHits
	c.planMisses += after.planMisses - before.planMisses
	c.conflictRetries += after.conflictRetries - before.conflictRetries
	c.macroHits += after.macroHits - before.macroHits
	c.macroMisses += after.macroMisses - before.macroMisses
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayConn is the stub provider of the render replay: it answers the
// engine's statements with the results the traced run captured.
type replayConn struct {
	results []*core.SQLResult
	next    int
}

func (c *replayConn) Connect(_, _, _ string) (core.DBConn, error) { return c, nil }
func (c *replayConn) Begin() error                                { return nil }
func (c *replayConn) Commit() error                               { return nil }
func (c *replayConn) Rollback() error                             { return nil }
func (c *replayConn) Close() error                                { return nil }
func (c *replayConn) Execute(string) (*core.SQLResult, error) {
	if c.next >= len(c.results) {
		return nil, fmt.Errorf("render replay: the engine asks for statement %d of %d", c.next+1, len(c.results))
	}
	c.next++
	return c.results[c.next-1], nil
}

// pageWriter is the http.ResponseWriter of the allocation pass: it keeps
// the page for the check and allocates nothing per request.
type pageWriter struct {
	header http.Header
	status int
	page   bytes.Buffer
}

func (w *pageWriter) Header() http.Header         { return w.header }
func (w *pageWriter) WriteHeader(status int)      { w.status = status }
func (w *pageWriter) Write(p []byte) (int, error) { return w.page.Write(p) }

// timed returns how long f took, in µs.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds()) / 1e3
}

// runTraced measures the per-layer metrics of w on the in-process stack,
// over real loopback TCP, on one connection.
func runTraced(w *workload, cfg config) (*result, error) {
	t := newTracer()
	macroDir := cfg.macroDir(w)
	st, err := newStack(w, macroDir, t)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	space, initial, err := st.prepare(w)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(st.root)
	defer ts.Close()
	b := newBrowser(ts.URL, w, space, initial, cfg.seed, 0, t)
	res := newResult(w)

	n := w.inprocPerSecond * int(cfg.seconds)
	block := n / blockPairs
	n = block * blockPairs
	if block == 0 {
		return nil, fmt.Errorf("--seconds %g leaves no requests for a traced block", cfg.seconds)
	}
	// run performs count operations on the one connection. After a traced
	// block it replays the statements of the block's requests on a bare
	// session: below the provider there is no interface to wrap, and a
	// replay made within the second meets the host in much the same state
	// as the span it is subtracted from. The session belongs to a second
	// database loaded from the same dataset, so that the counters of the
	// one under test count its requests only and a ship is applied to it
	// once; the replayed ships keep the second one in step.
	replica := sqldb.NewDatabase("REPLAY")
	if err := datasets.Load(replica, w.dataset); err != nil {
		return nil, err
	}
	sess := sqldb.NewSession(replica)
	defer sess.Close()
	run := func(count int, traced bool) phaseResult {
		var p phaseResult
		slow := hostSlowdown().wall // every timing of the block is corrected by it
		t.setEnabled(traced)
		first := len(t.done)
		for i := 0; i < count; i++ {
			_, lat, pageBytes, err := b.do()
			p.record(lat, pageBytes, err)
		}
		t.setEnabled(false)
		for _, r := range t.done[first:] {
			r.slowdown = slow
			for _, sql := range r.stmts {
				var err error
				r.execUS += timed(func() { _, err = sess.Exec(sql) }) / slow
				if err != nil {
					res.fail(fmt.Errorf("replaying %q: %w", sql, err))
				}
				r.parseUS += timed(func() { _, _ = sqldb.Parse(sql) }) / slow
			}
		}
		for i := range p.latMS {
			p.latMS[i] /= slow
		}
		res.add(p)
		return p
	}
	run(max(n/10, 10), false)

	t.keepRows = replayRowBudget
	var delta counters
	var untracedUS []float64
	var pageBytes int64
	for i := 0; i < 2*blockPairs; i++ {
		traced := i%2 == 1
		before := st.counters()
		p := run(block, traced)
		if traced {
			delta.accumulate(before, st.counters())
			pageBytes += p.bytes
		} else {
			for _, ms := range p.latMS {
				untracedUS = append(untracedUS, ms*1e3)
			}
		}
	}
	reqs := t.done
	if len(reqs) != n {
		res.fail(fmt.Errorf("%d requests left a complete span tree, %d were traced", len(reqs), n))
	}
	if t.mismatch > 0 {
		res.fail(fmt.Errorf("%d spans arrived under another trace ID than the client's or closed out of order", t.mismatch))
	}
	if err := writeSpans(cfg.outPath("trace_"+w.name+".jsonl"), reqs); err != nil {
		return nil, err
	}

	// Allocation pass: the handler chain alone, called directly.
	ops := make([]op, n)
	httpReqs := make([]*http.Request, n)
	for i := range ops {
		ops[i] = b.next()
		if httpReqs[i], err = ops[i].request().httpRequest("http://inprocess"); err != nil {
			return nil, err
		}
	}
	pw := &pageWriter{header: http.Header{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var allocFailures []error
	for i, o := range ops {
		clear(pw.header)
		pw.status = 200
		pw.page.Reset()
		st.root.ServeHTTP(pw, httpReqs[i])
		if err := b.check.check(o, pw.status, pw.page.Bytes()); err != nil {
			allocFailures = append(allocFailures, err)
		}
	}
	runtime.ReadMemStats(&after)
	res.add(phaseResult{requests: n, failures: allocFailures})

	// Replays of what happens inside the application: the captured
	// inputs are run through the layers' public entry points, alone.
	var budgets [][len(budgetLayers)]float64 // per request, in the order of budgetLayers
	var parseUS, decodeUS, renderUS, rootUS []float64
	slow := hostSlowdown().wall
	stmts, rows := 0, 0
	macros := map[string]*core.Macro{}
	for _, r := range reqs {
		self, root, err := selfByName(r.spans)
		if err != nil {
			res.fail(fmt.Errorf("trace %s: %w", r.spans[0].Trace, err))
			continue
		}
		sum := int64(0)
		for _, ns := range self {
			sum += ns
		}
		if d := float64(sum-root) / float64(root); d > 0.05 || d < -0.05 {
			res.fail(fmt.Errorf("trace %s: self times sum to %d ns, the root span lasts %d ns", r.spans[0].Trace, sum, root))
		}
		us := func(ns int64) float64 { return float64(ns) / 1e3 / r.slowdown }
		rootUS = append(rootUS, us(root))
		budgets = append(budgets, [len(budgetLayers)]float64{
			us(self[spanHTTP]),
			us(self[spanHandler]),
			us(self[spanApp]),
			us(self[spanConnect] + self[spanClose] + self[spanCommit]),
			us(self[spanExecute]) - r.execUS,
			r.execUS,
		})
		parseUS = append(parseUS, r.parseUS)
		stmts += len(r.stmts)
		for _, s := range r.spans {
			rows += s.Rows
		}

		if r.cgi == nil {
			continue
		}
		var inputs *cgi.Form
		decodeUS = append(decodeUS, timed(func() { inputs, err = r.cgi.Inputs() })/slow)
		if err != nil || len(r.results) == 0 || r.results[len(r.results)-1] == nil {
			continue // the render replay needs every result of the request
		}
		name, _, _ := cgi.SplitPathInfo(r.cgi.PathInfo)
		m := macros[name]
		if m == nil {
			if m, err = parseMacro(macroDir, name); err != nil {
				return nil, err
			}
			macros[name] = m
		}
		engine := &core.Engine{DB: &replayConn{results: r.results}, Commands: core.NewCommandRegistry()}
		var page bytes.Buffer
		renderUS = append(renderUS, timed(func() { err = engine.RunContext(context.Background(), m, core.ModeReport, inputs, &page) })/slow)
		if err != nil {
			res.fail(fmt.Errorf("render replay of trace %s: %w", r.spans[0].Trace, err))
		}
	}
	var macroParseUS, inputUS []float64
	slow = hostSlowdown().wall
	for name, m := range macros {
		engine := &core.Engine{Commands: core.NewCommandRegistry()}
		for i := 0; i < macroReplays; i++ {
			macroParseUS = append(macroParseUS, timed(func() { _, err = parseMacro(macroDir, name) })/slow)
			if err != nil {
				return nil, err
			}
			var page bytes.Buffer
			inputUS = append(inputUS, timed(func() { err = engine.RunContext(context.Background(), m, core.ModeInput, nil, &page) })/slow)
			if err != nil {
				return nil, fmt.Errorf("input mode of %s: %w", name, err)
			}
		}
	}

	maxChain := 0
	for _, tsnap := range st.db.TableStatsSnapshot() {
		maxChain = max(maxChain, tsnap.MaxChain)
	}
	nf := float64(n)
	inproc := median(untracedUS)
	// The budget is the mean over the middle half of the traced requests,
	// ranked by round trip: the requests lat_p50_ms speaks of. Unlike
	// medians taken layer by layer, means over one set of requests add up
	// to that set's round trip.
	typical := middleHalf(rootUS)
	covered := 0.0
	for k, name := range budgetLayers {
		sum := 0.0
		for _, i := range typical {
			sum += budgets[i][k]
		}
		res.metric(name, ratio(sum, float64(len(typical))), nil)
		covered += ratio(sum, float64(len(typical)))
	}
	res.metric("cgi.decode_us", median(decodeUS), nil)
	res.metric("core.parse_us", median(macroParseUS), nil)
	res.metric("core.render_us", median(renderUS), nil)
	res.metric("core.input_us", median(inputUS), nil)
	res.metric("sqldb.parse_us", median(parseUS), nil)
	res.metric("sqldb.rows_read_per_row_returned", ratio(delta.rowsRead, float64(rows)), nil)
	res.metric("sqldb.seq_scans_per_req", delta.seqScans/nf, nil)
	res.metric("sqldb.index_scans_per_req", delta.indexScans/nf, nil)
	res.metric("sqldb.plan_cache_hit_ratio", ratio(delta.planHits, delta.planHits+delta.planMisses), nil)
	res.metric("sqldb.conflict_retries_per_kreq", delta.conflictRetries/nf*1000, nil)
	res.metric("sqldb.max_chain", float64(maxChain), nil)
	res.metric("gateway.macro_cache_hit_ratio", ratio(delta.macroHits, delta.macroHits+delta.macroMisses), nil)
	res.metric("sql.stmts_per_req", float64(stmts)/nf, nil)
	res.metric("sql.rows_per_req", float64(rows)/nf, nil)
	res.metric("resp.kb_per_req", float64(pageBytes)/nf/1024, nil)
	res.metric("stack.allocs_per_req", float64(after.Mallocs-before.Mallocs)/nf, nil)
	res.metric("stack.alloc_kb_per_req", float64(after.TotalAlloc-before.TotalAlloc)/nf/1024, nil)
	res.metric("stack.gc_per_kreq", float64(after.NumGC-before.NumGC)/nf*1000, nil)
	res.metric("inproc.p50_us", inproc, nil)
	res.metric("inproc.p99_us", percentile(untracedUS, 99), nil)
	res.metric("trace.overhead_ratio", ratio(median(rootUS), inproc), nil)
	res.metric("trace.coverage_ratio", ratio(covered, inproc), nil)
	res.note("%d traced and %d untraced requests on 1 connection, %d of the untraced beyond inproc.p99_us; render replay over %d requests",
		len(reqs), len(untracedUS), len(untracedUS)-rank(99, len(untracedUS)), len(renderUS))
	return res, nil
}

// parseMacro reads and parses a macro as App.loadMacro does on a miss of
// the parsed-macro cache.
func parseMacro(macroDir, name string) (*core.Macro, error) {
	src, err := os.ReadFile(filepath.Join(macroDir, filepath.FromSlash(name)))
	if err != nil {
		return nil, err
	}
	return core.ParseWithIncludes(name, string(src), macrolint.DirResolver(macroDir))
}
