package experiments

import (
	"bytes"
	"strings"
	"testing"

	"db2www/internal/obs"
)

// TestA7ObsAblation runs the observability-overhead experiment at small
// scale and checks the result's shape: instrumentation back on, the
// engine's phase spans recorded, the report printed. It asserts nothing
// about the overhead: 15 requests of a few hundred µs cannot resolve a
// ratio of two means (the cheaper the request, the less), so timing is
// left to `benchrunner -exp a7` at full scale, which enforces the 5%
// budget.
func TestA7ObsAblation(t *testing.T) {
	cfg := Config{Rows: 40, Requests: 15, Seed: 1}
	r, err := RunA7(cfg)
	if err != nil {
		t.Fatalf("A7: %v", err)
	}
	if !obs.Enabled() {
		t.Fatal("RunA7 left instrumentation disabled")
	}
	if r.OffMeanMicros <= 0 || r.OnMeanMicros <= 0 {
		t.Fatalf("timings not populated: %+v", r)
	}
	if r.SpansPerTrace < 3 {
		t.Fatalf("spans per trace = %v, want the engine's phase spans", r.SpansPerTrace)
	}
	var buf bytes.Buffer
	PrintA7(&buf, r)
	for _, want := range []string{"observability", "overhead", "spans per trace"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("PrintA7 output missing %q:\n%s", want, buf.String())
		}
	}
}
