package flight

import (
	"math"
	"strings"
	"testing"
	"time"

	"db2www/internal/obs"
)

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// TestSLOBurnRateMath checks the gauges against hand-computed windows:
// burn = (bad/total) / (1 - target).
func TestSLOBurnRateMath(t *testing.T) {
	override(t, &sloLatencyTarget, 0.95) // budget 0.05
	s := NewSLO(SLOConfig{
		AvailabilityTarget: 0.9, // budget 0.1
		LatencyThreshold:   100 * time.Millisecond,
	})
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	s.SetClock(func() time.Time { return now })

	// 10 requests: 2 are 5xx, 5 are over the latency threshold.
	for i := 0; i < 10; i++ {
		status := 200
		if i < 2 {
			status = 500
		}
		total := 10 * time.Millisecond
		if i < 5 {
			total = 150 * time.Millisecond
		}
		s.Observe("q.d2w", status, total)
	}

	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].Macro != "q.d2w" {
		t.Fatalf("snapshot = %+v", snap)
	}
	br := snap[0]
	if br.Requests5m != 10 || br.Requests1h != 10 {
		t.Fatalf("requests = %d/%d, want 10/10", br.Requests5m, br.Requests1h)
	}
	approx(t, "avail 5m", br.Avail5m, (2.0/10.0)/0.1) // 2.0
	approx(t, "avail 1h", br.Avail1h, 2.0)
	approx(t, "lat 5m", br.Lat5m, (5.0/10.0)/0.05) // 10.0
	approx(t, "lat 1h", br.Lat1h, 10.0)
	approx(t, "Burn()", s.Burn("q.d2w"), 2.0)
}

// TestSLOWindowExpiry advances the clock past the short window: the 5m
// burn drains to zero while the 1h window still remembers.
func TestSLOWindowExpiry(t *testing.T) {
	s := NewSLO(SLOConfig{AvailabilityTarget: 0.9})
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	s.SetClock(func() time.Time { return now })

	s.Observe("m", 500, time.Millisecond)
	s.Observe("m", 200, time.Millisecond)

	now = now.Add(6 * time.Minute)
	snap := s.Snapshot()[0]
	if snap.Requests5m != 0 {
		t.Errorf("5m window holds %d requests after expiry", snap.Requests5m)
	}
	approx(t, "avail 5m after expiry", snap.Avail5m, 0)
	if snap.Requests1h != 2 {
		t.Errorf("1h window holds %d requests, want 2", snap.Requests1h)
	}
	approx(t, "avail 1h", snap.Avail1h, (1.0/2.0)/0.1)

	now = now.Add(2 * time.Hour)
	snap = s.Snapshot()[0]
	if snap.Requests1h != 0 {
		t.Errorf("1h window holds %d requests after 2h", snap.Requests1h)
	}
}

// TestSLOCardinalityOverflow: past sloMaxMacros, new macros aggregate into
// _other instead of growing state.
func TestSLOCardinalityOverflow(t *testing.T) {
	override(t, &sloMaxMacros, 2)
	s := NewSLO(SLOConfig{})
	s.Observe("a", 200, 0)
	s.Observe("b", 200, 0)
	s.Observe("c", 500, 0)
	s.Observe("d", 500, 0)

	got := map[string]int64{}
	for _, br := range s.Snapshot() {
		got[br.Macro] = br.Requests5m
	}
	if got["a"] != 1 || got["b"] != 1 || got["_other"] != 2 {
		t.Errorf("per-macro requests = %v, want a:1 b:1 _other:2", got)
	}
	if _, leaked := got["c"]; leaked {
		t.Error("macro c got its own series past the cap")
	}
	// Burn for an untracked macro falls back to the overflow bucket.
	if s.Burn("zzz") == 0 {
		t.Error("Burn for overflowed macro = 0, want the _other burn")
	}
}

// TestSLOExportTo: the scrape hook materialises the burn-rate float gauges
// and the per-window request counts in the Prometheus exposition.
func TestSLOExportTo(t *testing.T) {
	s := NewSLO(SLOConfig{AvailabilityTarget: 0.9})
	s.Observe("m.d2w", 500, time.Millisecond)
	s.Observe("m.d2w", 200, time.Millisecond)
	reg := obs.NewRegistry()
	s.ExportTo(reg)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE db2www_slo_burn_rate gauge",
		`db2www_slo_burn_rate{macro="m.d2w",slo="availability",window="5m"} 5`,
		`db2www_slo_burn_rate{macro="m.d2w",slo="latency",window="1h"} 0`,
		"# TYPE db2www_slo_requests gauge",
		`db2www_slo_requests{macro="m.d2w",window="5m"} 2`,
		`db2www_slo_requests{macro="m.d2w",window="1h"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSLONilNoOps: every method on a nil engine is a safe no-op.
func TestSLONilNoOps(t *testing.T) {
	var s *SLO
	s.Observe("m", 500, time.Second)
	s.SetClock(nil)
	s.ExportTo(obs.NewRegistry())
	if s.Snapshot() != nil || s.Burn("m") != 0 {
		t.Error("nil SLO returned non-zero state")
	}
}
