package experiments

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"db2www/internal/gateway"
	"db2www/internal/obs"
)

// TestA7ObsAblation runs the request-record experiment at small scale and
// checks what the on side left behind on each of its two requests:
// instrumentation back on, the engine's phase spans on the traces, the
// tail sampler keeping next to nothing of healthy fast traffic while the
// SLO windows saw the macro, statement digests tracked. It asserts
// nothing about time: a few blocks of 35 ms cannot resolve microseconds
// on a loaded box, so the budget is left to BenchmarkA7_RequestRecord at
// full scale; TestRequestRecordAllocations gates the one overhead figure
// a unit test can resolve.
func TestA7ObsAblation(t *testing.T) {
	r, err := RunA7(Config{Rows: 40, Requests: 15, Seed: 1})
	if err != nil {
		t.Fatalf("A7: %v", err)
	}
	if !obs.Enabled() {
		t.Fatal("RunA7 left instrumentation disabled")
	}
	if len(r.Requests) != 2 {
		t.Fatalf("measured %d requests, want the Appendix A report and the point lookup", len(r.Requests))
	}
	for _, q := range r.Requests {
		if q.OffMicros <= 0 || q.OnMicros <= 0 || q.OffAllocs <= 0 || q.OnAllocs <= q.OffAllocs {
			t.Errorf("%s: timings or allocations not populated: %+v", q.Request, q)
		}
		if q.SpansPerTrace < 3 {
			t.Errorf("%s: spans per trace = %v, want the engine's phase spans", q.Request, q.SpansPerTrace)
		}
		// Every request was fast and healthy: at rate 0.01 the tail
		// sampler keeps about one in a hundred.
		if q.OnRequests == 0 || q.KeptRecords > q.OnRequests/20+10 {
			t.Errorf("%s: kept %d records of %d healthy fast requests at rate 0.01", q.Request, q.KeptRecords, q.OnRequests)
		}
		// The SLO tracked the macro even though records were sampled away.
		if q.SLOMacros != 1 {
			t.Errorf("%s: SLO tracked %d macros, want 1", q.Request, q.SLOMacros)
		}
	}
	if r.DigestsTracked == 0 {
		t.Error("no statement digests tracked")
	}
}

// BenchmarkA7_RequestRecord is the A7 gate at full scale (500 rows, 20
// block pairs a request): it fails when describing a request costs more
// than maxRecordOverheadMicros on either request. One iteration is one
// run of the gate, so it wants -benchtime 1x:
//
//	go test -run '^$' -bench A7_ -benchtime 1x ./internal/experiments
func BenchmarkA7_RequestRecord(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunA7(Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range r.Requests {
			b.ReportMetric(q.OffMicros, q.Request+"-off-µs")
			b.ReportMetric(q.OnMicros, q.Request+"-on-µs")
			b.ReportMetric(q.OverheadMicros, q.Request+"-overhead-µs")
			b.ReportMetric(q.OffAllocs, q.Request+"-off-allocs")
			b.ReportMetric(q.OnAllocs, q.Request+"-on-allocs")
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRequestRecordAllocations bounds what describing a request may
// allocate: the benchmark's point_lookup request through the server
// gatewayd builds (AllocsPerRun counts the whole process). By default the request is a query-cache hit, the
// cheapest there is: at most 53 allocations with instrumentation off and
// 75 with everything on (49 and 65 measured). With -qcache-bytes 0 it
// reaches the engine, whose part of the record is then filled in too: at
// most 94 and 120 (106 and 152 before the five per-request descriptions
// became one record). Allocation counts are the one overhead figure that
// repeats exactly.
func TestRequestRecordAllocations(t *testing.T) {
	defer obs.SetEnabled(true)
	for _, c := range []struct {
		qcacheBytes   int64
		maxOff, maxOn float64
	}{{gateway.DefaultServerConfig().QCacheBytes, 53, 75}, {0, 94, 120}} {
		cfg := GatewaydConfig(pointLookupMacros(), pointLookupRows, 1)
		cfg.QCacheBytes = c.qcacheBytes
		srv, err := gateway.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		root := srv.Handler()
		rawURL, err := pointLookupURL(srv.DB)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("GET", rawURL, nil)
		for i, max := range []float64{c.maxOff, c.maxOn} {
			on := i == 1
			obs.SetEnabled(on)
			allocs := testing.AllocsPerRun(200, func() {
				rec := httptest.NewRecorder()
				root.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d", rec.Code)
				}
			})
			t.Logf("-qcache-bytes %d, instrumentation on=%v: %.0f allocations per request", c.qcacheBytes, on, allocs)
			if allocs > max {
				t.Errorf("-qcache-bytes %d, instrumentation on=%v: %.0f allocations per request, want at most %.0f",
					c.qcacheBytes, on, allocs, max)
			}
		}
		srv.Close()
	}
}
