package flight

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The /debug/flight error contract: unknown traces and a disabled
// recorder both answer 404 with a JSON error body — never an empty 200
// or a text/plain error a JSON client chokes on.

func flightGet(t *testing.T, r *Recorder, target string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: non-JSON body %q: %v", target, rec.Body.String(), err)
	}
	return rec, body
}

func TestHandlerUnknownTrace404JSON(t *testing.T) {
	r, err := New(Config{SlowThreshold: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r.Observe(fullTrace("kept-1", 500, time.Millisecond))

	rec, body := flightGet(t, r, "/debug/flight?trace=no-such-trace")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("unknown trace content-type = %q", ct)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "no-such-trace") {
		t.Fatalf("error body = %v", body)
	}
}

func TestHandlerNilRecorder404JSON(t *testing.T) {
	var r *Recorder
	rec, body := flightGet(t, r, "/debug/flight")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil recorder status = %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("nil recorder content-type = %q", ct)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "disabled") {
		t.Fatalf("error body = %v", body)
	}
}
