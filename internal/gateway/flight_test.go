package gateway

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"db2www/internal/flight"
	"db2www/internal/obs"
)

// brokenMacro fails at run time (unknown table), inducing a 500 through
// the full request path rather than a synthetic error.
const brokenMacro = `%SQL{
SELECT nothing FROM no_such_table
%}
%HTML_REPORT{
%EXEC_SQL
%}
`

const reportURL = "http://server/cgi-bin/db2www/urlquery.d2w/report?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"

// TestFlightEndToEnd is the acceptance walk for the flight recorder: at
// sample rate 0.01 an induced slow request and an induced 5xx are both
// retained, /debug/flight serves them by trace ID with the span
// waterfall, the variables, and the substituted SQL, the access
// log carries the retention decision, and the SLO burn rates reach
// /metrics and, as the same series, /server-status.
func TestFlightEndToEnd(t *testing.T) {
	h, app := newTestStack(t)
	if err := os.WriteFile(filepath.Join(app.MacroDir, "broken.d2w"), []byte(brokenMacro), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := flight.New(flight.Config{
		SampleRate:    0.01,
		SlowThreshold: time.Nanosecond, // every completed request counts as slow
		Metrics:       obs.Default,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Flight = rec
	rec.SLO().ExportTo(obs.Default)
	kept := func(reason string) float64 {
		return obs.Default.Snapshot()[`db2www_flight_kept_total{reason="`+reason+`"}`]
	}
	keptErrors, keptSlow := kept("error"), kept("slow")

	var logBuf syncWriter
	al := NewAccessLog(h, &logBuf)
	al.Handle("/debug/flight", rec.Handler())

	// Induced slow: a healthy report request over the (tiny) threshold.
	req := httptest.NewRequest("GET", reportURL, nil)
	req.Header.Set("X-Trace-Id", "f-slow")
	w := httptest.NewRecorder()
	al.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("report status = %d, body: %s", w.Code, w.Body.String())
	}

	// Induced 5xx: the broken macro fails during %EXEC_SQL.
	req = httptest.NewRequest("GET", "http://server/cgi-bin/db2www/broken.d2w/report", nil)
	req.Header.Set("X-Trace-Id", "f-err")
	w = httptest.NewRecorder()
	al.ServeHTTP(w, req)
	if w.Code != 500 {
		t.Fatalf("broken macro status = %d, want 500", w.Code)
	}

	// Detail by trace ID: span waterfall + variables + substituted SQL,
	// all on the one record.
	w = httptest.NewRecorder()
	al.ServeHTTP(w, httptest.NewRequest("GET", "http://server/debug/flight?trace=f-slow", nil))
	if w.Code != 200 {
		t.Fatalf("/debug/flight?trace=f-slow status = %d", w.Code)
	}
	detail := w.Body.String()
	for _, want := range []string{
		`"decision": "kept:slow"`,
		`"macro": "urlquery.d2w"`,
		`"name": "parse"`, // span waterfall
		`"name": "sql-exec:(unnamed)"`,
		`"name": "SEARCH"`, // variables
		`"source": "input"`,
		`"sql": "SELECT url`, // substituted SQL, not the template
		`"rows":`,
	} {
		if !strings.Contains(detail, want) {
			t.Errorf("detail missing %q:\n%s", want, detail)
		}
	}
	if strings.Contains(detail, "$(FIELDLIST)") {
		t.Error("record carries template SQL, want the substituted statement")
	}

	w = httptest.NewRecorder()
	al.ServeHTTP(w, httptest.NewRequest("GET", "http://server/debug/flight?trace=f-err", nil))
	errDetail := w.Body.String()
	for _, want := range []string{`"decision": "kept:error"`, `"macro": "broken.d2w"`, `"status": 500`} {
		if !strings.Contains(errDetail, want) {
			t.Errorf("error detail missing %q:\n%s", want, errDetail)
		}
	}

	// List view holds both records.
	w = httptest.NewRecorder()
	al.ServeHTTP(w, httptest.NewRequest("GET", "http://server/debug/flight", nil))
	if list := w.Body.String(); !strings.Contains(list, `"count": 2`) {
		t.Errorf("list = %s, want 2 records", list)
	}

	// The access log joins against /debug/flight by trace ID + decision.
	logged := logBuf.String()
	for _, want := range []string{"trace=f-slow flight=kept:slow", "trace=f-err flight=kept:error"} {
		if !strings.Contains(logged, want) {
			t.Errorf("access log missing %q:\n%s", want, logged)
		}
	}

	// Burn-rate gauges reach the Prometheus exposition, per macro, and the
	// same series the "SLO burn rates" section of /server-status.
	if n, m := kept("error")-keptErrors, kept("slow")-keptSlow; n != 1 || m != 1 {
		t.Errorf("db2www_flight_kept_total moved by %v errors and %v slow, want 1 and 1", n, m)
	}
	for _, page := range []string{"metrics", "server-status"} {
		w = httptest.NewRecorder()
		al.ServeHTTP(w, httptest.NewRequest("GET", "http://server/"+page, nil))
		for _, want := range []string{
			`db2www_slo_burn_rate{macro="urlquery.d2w",slo="availability",window="5m"}`,
			`db2www_slo_burn_rate{macro="broken.d2w",slo="availability",window="5m"}`,
			`db2www_slo_requests{macro="broken.d2w",window="5m"}`,
		} {
			if !strings.Contains(w.Body.String(), want) {
				t.Errorf("/%s missing %q", page, want)
			}
		}
	}
}

// TestFlightDisabledPathUnchanged: without a recorder the record carries
// no retention decision, and the access-log line stays pure Common Log
// Format.
func TestFlightDisabledPathUnchanged(t *testing.T) {
	h, _ := newTestStack(t)
	var logBuf syncWriter
	al := NewAccessLog(h, &logBuf)

	req := httptest.NewRequest("GET", reportURL, nil)
	req.Header.Set("X-Trace-Id", "off")
	w := httptest.NewRecorder()
	al.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status = %d", w.Code)
	}
	if logged := logBuf.String(); strings.Contains(logged, "flight=") || strings.Contains(logged, "trace=") {
		t.Errorf("flight-off log line gained a suffix:\n%s", logged)
	}
}

// TestFlightHealthySampledOut: at rate 0 with a high slow threshold a
// healthy request is observed (SLO sees it) but not retained.
func TestFlightHealthySampledOut(t *testing.T) {
	h, _ := newTestStack(t)
	rec, err := flight.New(flight.Config{SampleRate: 0, SlowThreshold: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	h.Flight = rec
	var logBuf syncWriter
	al := NewAccessLog(h, &logBuf)

	req := httptest.NewRequest("GET", reportURL, nil)
	req.Header.Set("X-Trace-Id", "healthy")
	w := httptest.NewRecorder()
	al.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status = %d", w.Code)
	}
	if rec.Get("healthy") != nil {
		t.Error("dropped request retained")
	}
	if !strings.Contains(logBuf.String(), "trace=healthy flight=dropped") {
		t.Errorf("access log missing the dropped decision:\n%s", logBuf.String())
	}
	// The SLO still saw the full traffic stream.
	if snap := rec.SLO().Snapshot(); len(snap) != 1 || snap[0].Requests5m != 1 {
		t.Errorf("SLO snapshot = %+v, want the one request", snap)
	}
}

// TestOneRecordEverySink serves one request with every sink wired and
// keeping everything, and finds the same request — trace ID, status,
// macro, statement digest, row count, substituted SQL — in each of them:
// the "Recent traces" row, /debug/flight?trace=, the flight.jsonl line
// (where an operator greps for a slow request), the CLF and the JSON
// access line. They all print the one record the request
// filled; none of them holds a description of its own.
func TestOneRecordEverySink(t *testing.T) {
	h, _ := newTestStack(t)
	dir := t.TempDir()
	rec, err := flight.New(flight.Config{SampleRate: 1, SlowThreshold: -1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	var clf, jsonl syncWriter
	h.Flight = rec
	h.TraceRing = obs.NewRing(4)
	inner := NewAccessLog(h, &clf)
	al := NewAccessLog(inner, &jsonl) // two middlewares, still one record
	al.Format = "json"
	al.Handle("/debug/flight", rec.Handler())
	al.Traces = h.TraceRing

	req := httptest.NewRequest("GET", reportURL, nil)
	req.Header.Set("X-Trace-Id", "one")
	w := httptest.NewRecorder()
	al.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status = %d", w.Code)
	}
	tr := rec.Get("one")
	if tr == nil || len(tr.SQL) != 1 || tr.SQL[0].Digest == "" || tr.SQL[0].Rows == 0 {
		t.Fatalf("kept record = %+v", tr)
	}
	if got := h.TraceRing.Snapshot(); len(got) != 1 || got[0] != tr {
		t.Fatal("the trace ring and the flight ring hold different records of the request")
	}
	digest := "digest=" + tr.SQL[0].Digest
	note := fmt.Sprintf(`[rows=%d %s sql=%q]`, tr.SQL[0].Rows, digest, obs.TruncateSQL(tr.SQL[0].SQL, 0))
	if !strings.Contains(note, "SELECT url , title FROM urldb WHERE urldb.url LIKE '%ib%'") {
		t.Fatalf("the record does not carry the substituted SQL: %s", note)
	}

	get := func(target string) string {
		w := httptest.NewRecorder()
		al.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		return w.Body.String()
	}
	detail := get("http://server/debug/flight?trace=one")
	jsonSQL, _ := json.Marshal(obs.TruncateSQL(tr.SQL[0].SQL, 0))
	jsonNote, _ := json.Marshal(strings.Trim(note, "[]"))
	flightFile, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for sink, c := range map[string]struct {
		text string
		want []string
	}{
		"recent traces": {get("http://server/server-status"),
			[]string{"<LI>one 200 GET /cgi-bin/db2www/urlquery.d2w/report: ", " sql-exec:(unnamed)=", note}},
		"flight.jsonl": {string(flightFile),
			[]string{`"trace_id":"one"`, `"method":"GET","path":"/cgi-bin/db2www/urlquery.d2w/report"`, `"status":200`,
				`"decision":"kept:slow"`, `"sql":` + string(jsonSQL), `"name":"sql-exec:(unnamed)"`, `"note":` + string(jsonNote)}},
		"/debug/flight": {detail,
			[]string{`"trace_id": "one"`, `"status": 200`, `"macro": "urlquery.d2w"`, `"decision": "kept:slow"`,
				`"digest": "` + tr.SQL[0].Digest + `"`, fmt.Sprintf(`"rows": %d`, tr.SQL[0].Rows),
				`"sql": ` + string(jsonSQL), `"name": "sql-exec:(unnamed)"`, `"note": ` + string(jsonNote)}},
		"CLF access log": {clf.String(),
			[]string{`"GET /cgi-bin/db2www/urlquery.d2w/report?`, ` 200 `, " trace=one flight=kept:slow " + digest + "\n"}},
		"JSON access log": {jsonl.String(),
			[]string{`"uri":"/cgi-bin/db2www/urlquery.d2w/report?`, `"status":200`, `"trace":"one"`,
				`"flight":"kept:slow"`, `"digest":"` + tr.SQL[0].Digest + `"`}},
	} {
		for _, want := range c.want {
			if !strings.Contains(c.text, want) {
				t.Errorf("%s: missing %q in:\n%s", sink, want, c.text)
			}
		}
	}
	if n := strings.Count(clf.String(), "\n") + strings.Count(jsonl.String(), "\n"); n != 2 {
		t.Errorf("%d access-log lines for one request behind two middlewares, want one each", n)
	}
}

// TestRecordPublishedAfterFinish serves requests from eight goroutines
// while others read every sink — /server-status, the /debug/flight list
// and detail, the JSONL file. A record reaches a sink only once it is
// finished and decided, so no reader may see one without its status,
// total and decision; under -race this also pins that nothing writes to a
// record a sink can already see.
func TestRecordPublishedAfterFinish(t *testing.T) {
	h, _ := newTestStack(t)
	dir := t.TempDir()
	rec, err := flight.New(flight.Config{SampleRate: 1, SlowThreshold: time.Hour, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	h.Flight = rec
	h.TraceRing = obs.NewRing(16)
	var logBuf syncWriter
	al := NewAccessLog(h, &logBuf)
	al.Handle("/debug/flight", rec.Handler())
	al.Traces = h.TraceRing
	get := func(target string) string {
		w := httptest.NewRecorder()
		al.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		return w.Body.String()
	}

	const workers, perWorker = 8, 25
	var serving, reading sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < workers; g++ {
		serving.Add(1)
		go func(g int) {
			defer serving.Done()
			for i := 0; i < perWorker; i++ {
				req := httptest.NewRequest("GET", reportURL, nil)
				req.Header.Set("X-Trace-Id", fmt.Sprintf("w%d-%d", g, i))
				w := httptest.NewRecorder()
				al.ServeHTTP(w, req)
				if w.Code != 200 {
					t.Errorf("status = %d", w.Code)
					return
				}
			}
		}(g)
	}
	unfinished := regexp.MustCompile(`"status": ?0\b|"total_micros": ?0\b|"decision": ?""|<LI>w\d+-\d+ 0 `)
	for _, read := range []func() string{
		func() string { return get("http://server/server-status") },
		func() string { return get("http://server/debug/flight") },
		func() string {
			for _, r := range rec.Records(1) {
				return get("http://server/debug/flight?trace=" + r.ID)
			}
			return ""
		},
		func() string {
			b, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
			if err != nil {
				t.Errorf("reading the sink: %v", err)
			}
			return string(b)
		},
	} {
		reading.Add(1)
		go func(read func() string) {
			defer reading.Done()
			for {
				if text := read(); unfinished.MatchString(text) {
					t.Errorf("a sink shows an unfinished record:\n%s", text)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(read)
	}
	serving.Wait()
	close(done)
	reading.Wait()

	if n := strings.Count(logBuf.String(), " flight=kept:sampled"); n != workers*perWorker {
		t.Errorf("%d access-log lines carry the decision, want %d", n, workers*perWorker)
	}
	if kept := len(rec.Records(0)); kept != workers*perWorker {
		t.Errorf("flight ring holds %d records, want all %d", kept, workers*perWorker)
	}
}
