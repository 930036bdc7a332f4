package history

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"db2www/internal/obs"
)

func historyGet(t *testing.T, h http.Handler, target string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: non-JSON body %q: %v", target, rec.Body.String(), err)
	}
	return rec, body
}

func TestHandlerIndex(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total", "t").Add(3)
	s, clk := newTestStore(t, Config{Registry: reg, Interval: time.Second,
		Retention: time.Minute, Rules: DefaultRules()})
	clk.tick(s, time.Second)

	rec, body := historyGet(t, s.Handler(), "/debug/history")
	if rec.Code != 200 {
		t.Fatalf("index status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content-type = %q", ct)
	}
	if body["interval_ms"].(float64) != 1000 || body["scrapes"].(float64) != 1 {
		t.Fatalf("meta = %v", body)
	}
	series := body["series"].([]any)
	if len(series) < 3 {
		t.Fatalf("series list too short: %v", series)
	}
	alerts := body["alerts"].([]any)
	if len(alerts) != len(DefaultRules()) {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestHandlerSeriesQuery(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c_total", "t")
	s, clk := newTestStore(t, Config{Registry: reg, Interval: time.Second, Retention: time.Minute})
	c.Add(1)
	clk.tick(s, time.Second)
	c.Add(3)
	clk.tick(s, time.Second)

	rec, body := historyGet(t, s.Handler(), "/debug/history?series=c_total")
	if rec.Code != 200 || body["series"] != "c_total" || body["fn"] != "raw" {
		t.Fatalf("raw query: %d %v", rec.Code, body)
	}
	samples := body["samples"].([]any)
	if len(samples) != 2 {
		t.Fatalf("samples = %v", samples)
	}
	// Each sample is [unix_ms, value].
	first := samples[0].([]any)
	if len(first) != 2 || first[1].(float64) != 1 {
		t.Fatalf("sample shape = %v", first)
	}

	rec, body = historyGet(t, s.Handler(), "/debug/history?series=c_total&fn=rate")
	if rec.Code != 200 {
		t.Fatalf("rate status = %d", rec.Code)
	}
	samples = body["samples"].([]any)
	if len(samples) != 1 || samples[0].([]any)[1].(float64) != 3 {
		t.Fatalf("rate samples = %v", samples)
	}

	// A tiny window keeps only the newest scrape (now == its timestamp).
	rec, body = historyGet(t, s.Handler(), "/debug/history?series=c_total&window=1ms")
	if rec.Code != 200 || len(body["samples"].([]any)) != 1 {
		t.Fatalf("tiny window: %d %v", rec.Code, body["samples"])
	}

	rec, _ = historyGet(t, s.Handler(), "/debug/history?series=c_total&step=10s")
	if rec.Code != 200 {
		t.Fatalf("step status = %d", rec.Code)
	}
}

func TestHandlerUnknownSeries404(t *testing.T) {
	s, clk := newTestStore(t, Config{Interval: time.Second, Retention: time.Minute})
	clk.tick(s, time.Second)
	rec, body := historyGet(t, s.Handler(), "/debug/history?series=nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown series status = %d, want 404", rec.Code)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "nope") {
		t.Fatalf("error body = %v", body)
	}
}

func TestHandlerBadParams400(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total", "t").Add(1)
	s, clk := newTestStore(t, Config{Registry: reg, Interval: time.Second, Retention: time.Minute})
	clk.tick(s, time.Second)
	for _, target := range []string{
		"/debug/history?series=c_total&window=banana",
		"/debug/history?series=c_total&fn=median",
		"/debug/history?series=c_total&step=banana",
		"/debug/history?series=c_total&step=-5s",
	} {
		rec, body := historyGet(t, s.Handler(), target)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s status = %d, want 400", target, rec.Code)
		}
		if _, ok := body["error"].(string); !ok {
			t.Fatalf("GET %s: no JSON error body: %v", target, body)
		}
	}
}

func TestDashboardRenders(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("db2www_http_request_seconds", "t", []float64{0.01, 0.1, 1})
	reg.Counter("db2www_http_requests_total", "t", "code", "200").Add(5)
	s, clk := newTestStore(t, Config{Registry: reg, Interval: time.Second,
		Retention: time.Minute, Rules: DefaultRules()})
	clk.tick(s, time.Second)
	h.Observe(0.05)
	reg.Counter("db2www_http_requests_total", "t", "code", "200").Add(5)
	clk.tick(s, time.Second)

	rec := httptest.NewRecorder()
	s.Dashboard().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/dash", nil))
	if rec.Code != 200 {
		t.Fatalf("dash status = %d", rec.Code)
	}
	page := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("content-type = %q", ct)
	}
	for _, want := range []string{
		"Request rate", "Request latency", "5xx rate", "SLO burn",
		"<svg", "<polyline", "Alert rules", "5xx_rate",
		`http-equiv="refresh"`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	// Zero-dependency: no external scripts, stylesheets, or images.
	for _, banned := range []string{"<script", "src=\"http", "href=\"http", "<link"} {
		if strings.Contains(page, banned) {
			t.Fatalf("dashboard references external asset: found %q", banned)
		}
	}
}
