package experiments

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"db2www/internal/obs"
)

// TestA7ObsAblation runs the request-record experiment at small scale and
// checks what the on side left behind on each of its two requests:
// instrumentation back on, the engine's phase spans on the traces, the
// tail sampler keeping next to nothing of healthy fast traffic while the
// SLO windows saw the macro, statement digests tracked, the report
// printed. It asserts nothing about time: a few blocks of 35 ms cannot
// resolve microseconds on a loaded box, so the budget is left to
// `benchrunner -exp a7` at full scale; TestRequestRecordAllocations gates
// the one overhead figure a unit test can resolve.
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
	var buf bytes.Buffer
	PrintA7(&buf, r)
	for _, want := range []string{"request record", "overhead", "allocs", "point_lookup",
		"spans per trace", "records kept", "SLO macros", "digests tracked"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("PrintA7 output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRequestRecordAllocations bounds what describing a request may
// allocate: the benchmark's point_lookup request through gatewayd's
// default wiring makes at most 94 allocations with instrumentation off
// and at most 120 with everything on (106 and 152 before the five
// per-request descriptions became one record). Allocation counts are the
// one overhead figure that repeats exactly.
func TestRequestRecordAllocations(t *testing.T) {
	defer obs.SetEnabled(true)
	st, err := NewStack(StackConfig{Rows: pointLookupRows, Seed: 1, CacheMacros: true,
		MacroDir: filepath.Join(RepoRoot(), "benchmark", "macros", "urldb")})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	root, err := st.Gatewayd()
	if err != nil {
		t.Fatal(err)
	}
	rawURL, err := pointLookupURL(st)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", rawURL, nil)
	for _, c := range []struct {
		on  bool
		max float64
	}{{false, 94}, {true, 120}} {
		obs.SetEnabled(c.on)
		allocs := testing.AllocsPerRun(200, func() {
			rec := httptest.NewRecorder()
			root.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
		})
		t.Logf("instrumentation on=%v: %.0f allocations per request", c.on, allocs)
		if allocs > c.max {
			t.Errorf("instrumentation on=%v: %.0f allocations per request, want at most %.0f", c.on, allocs, c.max)
		}
	}
}

// TestGatewaydDefaults pins Stack.Gatewayd — what A7, its budget and
// TestRequestRecordAllocations call gatewayd's default wiring — to the
// flag defaults cmd/gatewayd prints: a flag default that moves without
// the stack following it fails here instead of being measured silently.
func TestGatewaydDefaults(t *testing.T) {
	cmd := exec.Command("go", "run", "db2www/cmd/gatewayd", "-h")
	cmd.Dir = RepoRoot()
	usage, _ := cmd.CombinedOutput() // -h exits 0 after printing the flags
	defaults := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+).*\n.*\(default (.*)\)$`).FindAllStringSubmatch(string(usage), -1) {
		defaults[m[1]] = m[2]
	}
	st, err := NewStack(StackConfig{Rows: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Gatewayd(); err != nil {
		t.Fatal(err)
	}
	slo := st.Handler.Flight.SLO().Config()
	for name, got := range map[string]string{
		"flight":            "true", // Gatewayd wires a recorder
		"trace-ring":        fmt.Sprint(gatewaydTraceRing),
		"flight-sample":     fmt.Sprint(gatewaydFlightSample),
		"slowlog-threshold": st.Handler.Flight.SlowThreshold().String(),
		"slo-target":        fmt.Sprint(slo.AvailabilityTarget),
		"slo-latency":       slo.LatencyThreshold.String(),
	} {
		if defaults[name] != got {
			t.Errorf("gatewayd -%s defaults to %q, Stack.Gatewayd uses %s\n%s", name, defaults[name], got, usage)
		}
	}
}
