package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"db2www/internal/obs"
)

func TestAccessLogJSONFormat(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The inner handler leaves its flight join keys where
		// gateway.Handler does: on the request's record.
		setJoinKeys(r, "keep", "d-abc")
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte("short and stout"))
	})
	var buf bytes.Buffer
	al := NewAccessLog(inner, &buf)
	al.Format = "json"
	// Deterministic clock: each call advances 250µs, so the measured
	// latency is exact.
	base := time.Date(1996, time.June, 4, 10, 0, 0, 0, time.UTC)
	calls := 0
	al.Now = func() time.Time {
		calls++
		return base.Add(time.Duration(calls) * 250 * time.Microsecond)
	}

	req := httptest.NewRequest("GET", "/cgi-bin/db2www/report.d2w/report?X=1", nil)
	req.RemoteAddr = "10.1.2.3:4242"
	req.Header.Set("X-Trace-Id", "tr-123")
	al.ServeHTTP(httptest.NewRecorder(), req)

	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("not one JSONL line: %q", line)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("line not JSON: %q: %v", line, err)
	}
	want := map[string]any{
		"host":   "10.1.2.3",
		"method": "GET",
		"uri":    "/cgi-bin/db2www/report.d2w/report?X=1",
		"status": float64(http.StatusTeapot),
		"bytes":  float64(len("short and stout")),
		"trace":  "tr-123",
		"flight": "keep",
		"digest": "d-abc",
	}
	for k, v := range want {
		if rec[k] != v {
			t.Fatalf("field %s = %v, want %v (line %q)", k, rec[k], v, line)
		}
	}
	if rec["latency_us"].(float64) != 250 {
		t.Fatalf("latency_us = %v, want 250", rec["latency_us"])
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["time"].(string)); err != nil {
		t.Fatalf("time field %v: %v", rec["time"], err)
	}
}

func TestAccessLogJSONOmitsEmptyJoinKeys(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})
	var buf bytes.Buffer
	al := NewAccessLog(inner, &buf)
	al.Format = "json"
	al.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("line not JSON: %q", buf.String())
	}
	for _, absent := range []string{"trace", "flight", "digest"} {
		if _, ok := rec[absent]; ok {
			t.Fatalf("field %s present on traceless request: %v", absent, rec)
		}
	}
	if rec["status"].(float64) != 200 {
		t.Fatalf("status = %v", rec["status"])
	}
}

func TestAccessLogCLFDigestSuffix(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		setJoinKeys(r, "drop", "d-77")
		_, _ = w.Write([]byte("ok"))
	})
	var buf bytes.Buffer
	al := NewAccessLog(inner, &buf)
	al.Now = fixedClock
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("X-Trace-Id", "tr-9")
	al.ServeHTTP(httptest.NewRecorder(), req)
	want := `192.0.2.1 - - [04/Jun/1996:10:30:00 +0000] "GET /x HTTP/1.1" 200 2 trace=tr-9 flight=drop digest=d-77` + "\n"
	if line := buf.String(); line != want {
		t.Fatalf("CLF line:\n got %q\nwant %q", line, want)
	}
}

// setJoinKeys puts a retention decision and a statement digest on the
// record the AccessLog middleware gave the request.
func setJoinKeys(r *http.Request, decision, digest string) {
	tr := obs.TraceFrom(r.Context())
	tr.Decision = decision
	tr.StartSQL("s", "SELECT 1").Digest = digest
}

// TestAccessLogFormatsOnlyForAWriter: without a log file (gatewayd's
// default) the middleware neither reads the clock nor formats a line; with
// one, a request reads the clock twice — the end of the request is also
// the line's timestamp.
func TestAccessLogFormatsOnlyForAWriter(t *testing.T) {
	for _, c := range []struct {
		out   io.Writer
		reads int
	}{{nil, 0}, {io.Discard, 2}} {
		al := NewAccessLog(okHandler(), c.out)
		reads := 0
		al.Now = func() time.Time { reads++; return fixedClock() }
		al.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/page", nil))
		if reads != c.reads {
			t.Errorf("out=%v: %d clock reads, want %d", c.out, reads, c.reads)
		}
	}
}
