package flight

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestAnomalyBurstTrigger: a 5xx burst trips exactly one capture; the
// rate limit suppresses the rest until the interval elapses.
func TestAnomalyBurstTrigger(t *testing.T) {
	override(t, &burst5xx, 5)
	// Burn trips on any 5xx with the default 99.9% target; push it out of
	// reach so this test sees the burst path alone.
	override(t, &burnThreshold, 1e9)
	override(t, &pprofMinInterval, time.Minute)
	r, err := New(Config{SlowThreshold: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	var captures []string
	r.TestHookAnomaly(
		func() time.Time { return now },
		func(reason string, _ time.Time) { captures = append(captures, reason) },
	)

	for i := 0; i < 4; i++ {
		r.Observe(finishedTrace("x", 500, time.Millisecond))
	}
	if len(captures) != 0 || r.Burst5xx() != nil {
		t.Fatalf("captured before the burst threshold: %v, %v", captures, r.Burst5xx())
	}
	r.Observe(finishedTrace("x", 500, time.Millisecond))
	if len(captures) != 1 || !strings.HasPrefix(captures[0], "5xx-burst:") {
		t.Fatalf("after 5th 5xx captures = %v, want one 5xx-burst", captures)
	}
	// The burst lasts while its oldest 5xx is inside the window.
	if err := r.Burst5xx(); err == nil || err.Error() != captures[0] {
		t.Fatalf("Burst5xx() = %v during the burst, want %s", err, captures[0])
	}
	now = now.Add(burstWindow)
	if err := r.Burst5xx(); err != nil {
		t.Fatalf("Burst5xx() = %v once the burst left the window", err)
	}

	// Still inside pprofMinInterval: a continuing burst must not re-capture.
	for i := 0; i < 20; i++ {
		r.Observe(finishedTrace("x", 500, time.Millisecond))
	}
	if len(captures) != 1 {
		t.Fatalf("rate limit did not hold: %v", captures)
	}

	// Past the interval the trigger re-arms.
	now = now.Add(2 * time.Minute)
	for i := 0; i < 5; i++ {
		r.Observe(finishedTrace("x", 500, time.Millisecond))
	}
	if len(captures) != 2 {
		t.Fatalf("after interval captures = %v, want 2", captures)
	}
}

// TestAnomalyBurnTrigger: the 5m availability burn rate alone (burst
// threshold out of reach) trips a capture.
func TestAnomalyBurnTrigger(t *testing.T) {
	override(t, &burst5xx, 1000)
	override(t, &burnThreshold, 5)
	r, err := New(Config{SlowThreshold: time.Second, SLO: SLOConfig{AvailabilityTarget: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	var captures []string
	r.TestHookAnomaly(nil, func(reason string, _ time.Time) { captures = append(captures, reason) })

	// One 5xx out of one request: burn = 1/0.1 = 10 >= 5.
	r.Observe(finishedTrace("x", 500, time.Millisecond))
	if len(captures) != 1 || !strings.HasPrefix(captures[0], "burn-rate:") {
		t.Fatalf("captures = %v, want one burn-rate capture", captures)
	}
}

// TestAnomalyErrorStorm: 100 000 5xx inside one burst window cost the
// trigger the same each — it keeps the last burst5xx times, not every time
// of the window — and fire one capture, the rate limit holding the rest.
func TestAnomalyErrorStorm(t *testing.T) {
	override(t, &burnThreshold, 1e9) // the burst path alone
	r, err := New(Config{SlowThreshold: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const storm = 100_000
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	var captures []string
	r.TestHookAnomaly(
		func() time.Time { return now },
		func(reason string, _ time.Time) { captures = append(captures, reason) },
	)
	for i := 0; i < storm; i++ {
		now = now.Add(burstWindow / storm)
		r.Observe(finishedTrace("x", 500, time.Millisecond))
		if n := len(r.anomaly.last); n > burst5xx {
			t.Fatalf("after %d 5xx the trigger holds %d times, want at most %d", i+1, n, burst5xx)
		}
	}
	if len(captures) != 1 || !strings.HasPrefix(captures[0], "5xx-burst:10-in-10s") {
		t.Errorf("captures = %v, want one 5xx-burst", captures)
	}
}

// TestAnomalyHealthyRequestsNeverTrigger: the hot path for 2xx is a
// status check and nothing else — no capture regardless of volume.
func TestAnomalyHealthyRequestsNeverTrigger(t *testing.T) {
	override(t, &burnThreshold, 0.0001)
	r, err := New(Config{SlowThreshold: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	captured := false
	r.TestHookAnomaly(nil, func(string, time.Time) { captured = true })
	for i := 0; i < 100; i++ {
		r.Observe(finishedTrace("x", 200, time.Millisecond))
	}
	if captured {
		t.Error("healthy traffic tripped a capture")
	}
}

// TestAnomalyWriteProfiles exercises the real pprof path once: the
// flight dir gains goroutine/heap .pb.gz files plus the reason sidecar.
func TestAnomalyWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	a := newAnomaly(dir, nil)
	a.writeProfiles("test-reason", time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC))

	for _, pattern := range []string{"pprof-goroutine-*.pb.gz", "pprof-heap-*.pb.gz", "pprof-*.reason"} {
		matches, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil || len(matches) != 1 {
			t.Fatalf("%s: %d matches, err %v", pattern, len(matches), err)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "pprof-20260805T120000.reason"))
	if err != nil || strings.TrimSpace(string(b)) != "test-reason" {
		t.Errorf("reason sidecar = %q, err %v", b, err)
	}
}
