package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestA8FlightAblation runs the flight-overhead experiment at small
// scale and checks the result's shape: what was kept, what the SLO
// tracked, what is printed. It asserts nothing about the overhead: 15
// requests of a few hundred µs cannot resolve a ratio of two means (the
// cheaper the request, the less), so timing is left to `benchrunner -exp
// a8` at full scale, which enforces the 5% budget.
func TestA8FlightAblation(t *testing.T) {
	cfg := Config{Rows: 40, Requests: 15, Seed: 1}
	r, err := RunA8(cfg)
	if err != nil {
		t.Fatalf("A8: %v", err)
	}
	if r.OffMeanMicros <= 0 || r.OnMeanMicros <= 0 {
		t.Fatalf("timings not populated: %+v", r)
	}
	// Every request was fast and healthy; at rate 0.01 over ~100 requests
	// the tail sampler should keep almost none of them.
	if r.KeptRecords > 10 {
		t.Errorf("kept %d records from healthy fast traffic at rate 0.01", r.KeptRecords)
	}
	// The SLO tracked the macro even though records were sampled away.
	if r.SLOMacros != 1 {
		t.Errorf("SLO tracked %d macros, want 1", r.SLOMacros)
	}
	var buf bytes.Buffer
	PrintA8(&buf, r)
	for _, want := range []string{"flight recorder", "overhead", "records kept", "SLO macros"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("PrintA8 output missing %q:\n%s", want, buf.String())
		}
	}
}
