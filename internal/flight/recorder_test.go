package flight

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"db2www/internal/obs"
)

// finishedTrace builds a bare record the way the gateway does: a parse
// span, then Finish with status and total.
func finishedTrace(id string, status int, total time.Duration) *obs.Trace {
	tr := obs.NewTrace(id)
	tr.Method, tr.Path = "GET", "/cgi-bin/db2www/q.d2w/report"
	tr.Start(obs.SpanParse, "").End()
	tr.Finish(status, total)
	return tr
}

// fullTrace is finishedTrace with what a report request leaves on the
// record besides: the macro, two variables, one statement.
func fullTrace(id string, status int, total time.Duration) *obs.Trace {
	tr := finishedTrace(id, status, total)
	tr.SetMacro("q.d2w", true)
	tr.Var("SEARCH", 0, obs.SourceInput, false)
	tr.Var("WHERE", 1, obs.SourceDefine, false)
	e := tr.StartSQL("(unnamed)", "SELECT 1")
	e.Cache, e.Kind = "miss", "select"
	tr.EndSQL(e, tr.Begun.Add(time.Millisecond), 2*time.Millisecond, 3, nil)
	return tr
}

// readJSONL decodes the sink's file the way any consumer would: one JSON
// object per line.
func readJSONL(t *testing.T, path string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSuffix(string(mustRead(t, path)), "\n"), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("%s: a line is not a JSON object on its own: %v\n%s", path, err, line)
		}
		out = append(out, rec)
	}
	return out
}

// override sets one of the package's production constants to v for the
// rest of the test.
func override[T any](t *testing.T, p *T, v T) {
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

func TestRecorderObserveAndRing(t *testing.T) {
	override(t, &ringSize, 4)
	r, err := New(Config{SampleRate: 0, SlowThreshold: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Observe(finishedTrace("ok", 200, time.Millisecond)); d != Dropped {
		t.Fatalf("healthy at rate 0: %q", d)
	}
	if d := r.Observe(fullTrace("err", 500, time.Millisecond)); d != KeptError {
		t.Fatalf("5xx: %q", d)
	}
	if d := r.Observe(fullTrace("slow", 200, 2*time.Second)); d != KeptSlow {
		t.Fatalf("slow: %q", d)
	}

	recs := r.Records(0)
	if len(recs) != 2 {
		t.Fatalf("ring holds %d records, want 2", len(recs))
	}
	if recs[0].ID != "slow" || recs[1].ID != "err" {
		t.Errorf("order = %s, %s; want newest first", recs[0].ID, recs[1].ID)
	}

	rec := r.Get("err")
	if rec == nil {
		t.Fatal("Get(err) = nil")
	}
	if rec.Decision != KeptError || rec.Status != 500 || rec.Macro != "q.d2w" || !rec.MacroCached {
		t.Errorf("record = %+v", rec)
	}
	if len(rec.Spans) != 2 || rec.Spans[0].Name() != "parse" {
		t.Errorf("spans = %+v", rec.Spans)
	}
	if len(rec.Vars) != 2 || rec.Vars[1].Name != "WHERE" || rec.Vars[1].MaxDepth != 1 {
		t.Errorf("vars = %+v", rec.Vars)
	}
	if len(rec.SQL) != 1 || rec.SQL[0].SQL != "SELECT 1" || rec.SQL[0].Cache != "miss" {
		t.Errorf("sql = %+v", rec.SQL)
	}
	if r.Get("ok") != nil {
		t.Error("dropped record retrievable")
	}

	// Ring wraps: 4 more kept records push "err" out.
	for i := 0; i < 4; i++ {
		r.Observe(finishedTrace(fmt.Sprintf("e%d", i), 500, time.Millisecond))
	}
	if r.Get("err") != nil {
		t.Error("ring did not evict the oldest record")
	}
	if got := len(r.Records(2)); got != 2 {
		t.Errorf("Records(2) = %d records", got)
	}
}

func TestRecorderJSONLRoundTripAndTornLine(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Config{SlowThreshold: time.Second, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r.Observe(fullTrace("a", 500, time.Millisecond))
	r.Observe(fullTrace("b", 503, time.Millisecond))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Every line is a whole record on its own — the sink writes a record
	// in one Write, so a crash tears at most the last line and everything
	// before it stays readable — under the field names /debug/flight uses.
	recs := readJSONL(t, filepath.Join(dir, "flight.jsonl"))
	if len(recs) != 2 {
		t.Fatalf("sink holds %d records, want 2", len(recs))
	}
	got := recs[0]
	for k, want := range map[string]any{
		"trace_id": "a", "status": 500.0, "decision": KeptError, "macro": "q.d2w", "macro_cached": true,
		"method": "GET", "path": "/cgi-bin/db2www/q.d2w/report", "total_micros": 1000.0,
	} {
		if got[k] != want {
			t.Errorf("decoded %s = %v, want %v", k, got[k], want)
		}
	}
	spans, vars, sql := got["spans"].([]any), got["vars"].([]any), got["sql"].([]any)
	if len(spans) != 2 || len(vars) != 2 || len(sql) != 1 {
		t.Fatalf("decoded record = %+v", got)
	}
	if sp := spans[1].(map[string]any); sp["name"] != "sql-exec:(unnamed)" || sp["start_micros"] != 1000.0 ||
		sp["dur_micros"] != 2000.0 || sp["note"] != `rows=3 cache=miss sql="SELECT 1"` {
		t.Errorf("decoded span = %+v", sp)
	}
	if v := vars[1].(map[string]any); v["name"] != "WHERE" || v["source"] != "define" || v["count"] != 1.0 ||
		v["max_depth"] != 1.0 || v["null"] != false {
		t.Errorf("decoded var = %+v", v)
	}
	if q := sql[0].(map[string]any); q["section"] != "(unnamed)" || q["sql"] != "SELECT 1" || q["rows"] != 3.0 ||
		q["dur_micros"] != 2000.0 || q["cache"] != "miss" || q["kind"] != "select" {
		t.Errorf("decoded sql = %+v", q)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRecorderRotation(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	override(t, &maxFileBytes, 256)
	r, err := New(Config{SlowThreshold: time.Second, Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.Observe(fullTrace(fmt.Sprintf("t%d", i), 500, time.Millisecond))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "flight.jsonl.1")); err != nil {
		t.Fatalf("rotated file missing: %v", err)
	}
	snap := reg.Snapshot()
	if snap["db2www_flight_rotations_total"] < 1 {
		t.Errorf("rotations counter = %v", snap["db2www_flight_rotations_total"])
	}
	if snap[`db2www_flight_kept_total{reason="error"}`] != 10 {
		t.Errorf("kept counter = %v", snap[`db2www_flight_kept_total{reason="error"}`])
	}
	// Every record survives across the live file and the rotation (the
	// live file may be empty if the last write itself rotated).
	total := 0
	for _, name := range []string{"flight.jsonl", "flight.jsonl.1"} {
		total += len(readJSONL(t, filepath.Join(dir, name)))
	}
	// One level of rotation bounds disk, so only the newest records are
	// guaranteed retained; the rotated file must hold at least one.
	if total == 0 {
		t.Error("no records survived rotation")
	}
}

// TestRecorderConcurrentStress drives Observe (forcing rotation) from
// many goroutines; run under -race this pins the recorder's locking.
func TestRecorderConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	override(t, &maxFileBytes, 512)
	r, err := New(Config{SampleRate: 0.5, SlowThreshold: time.Second, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				status := 200
				if i%3 == 0 {
					status = 500
				}
				id := fmt.Sprintf("g%d-%d", g, i)
				r.Observe(fullTrace(id, status, time.Millisecond))
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Records(10)
				r.Get("g0-0")
				r.SLO().Snapshot()
			}
		}()
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(r.Records(0)) == 0 {
		t.Error("stress left an empty ring")
	}
}

// TestRecorderNilNoOps: a nil recorder is the disabled path — every
// entry point must be safe and cost nothing.
func TestRecorderNilNoOps(t *testing.T) {
	var r *Recorder
	if d := r.Observe(fullTrace("x", 500, time.Second)); d != Dropped {
		t.Errorf("nil Observe = %q", d)
	}
	// A nil record (obs.SetEnabled(false)) is the other disabled path.
	on, err := New(Config{SlowThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if d := on.Observe(nil); d != Dropped || len(on.Records(0)) != 0 || len(on.SLO().Snapshot()) != 0 {
		t.Errorf("Observe(nil) = %q, %d records, %d SLO macros", d, len(on.Records(0)), len(on.SLO().Snapshot()))
	}
	if r.Records(5) != nil || r.Get("x") != nil || r.SLO() != nil || r.Close() != nil {
		t.Error("nil recorder leaked state")
	}
	if r.SlowThreshold() != 0 {
		t.Error("nil SlowThreshold != 0")
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 404 {
		t.Errorf("nil Handler status = %d", rec.Code)
	}
}

func TestRecorderHandler(t *testing.T) {
	r, err := New(Config{SlowThreshold: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r.Observe(fullTrace("want-me", 500, time.Millisecond))

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 200 {
		t.Fatalf("list status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"count": 1`, `"trace_id": "want-me"`, `"decision": "kept:error"`, `"macro": "q.d2w"`} {
		if !strings.Contains(body, want) {
			t.Errorf("list missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight?trace=want-me", nil))
	if rec.Code != 200 {
		t.Fatalf("detail status = %d", rec.Code)
	}
	body = rec.Body.String()
	for _, want := range []string{`"name": "SEARCH"`, `"sql": "SELECT 1"`, `"name": "parse"`} {
		if !strings.Contains(body, want) {
			t.Errorf("detail missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight?trace=nope", nil))
	if rec.Code != 404 {
		t.Errorf("missing-trace status = %d, want 404", rec.Code)
	}
}
