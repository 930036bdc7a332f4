package history

import (
	"testing"
	"time"

	"db2www/internal/obs"
)

// state is a rule's state as the firing gauges see it.
func state(s *Store, i int) string {
	s.alerts.mu.Lock()
	defer s.alerts.mu.Unlock()
	switch st := s.alerts.rules[i]; {
	case st.firing:
		return "firing"
	case !st.pendingSince.IsZero():
		return "pending"
	}
	return "ok"
}

// TestAlertPendingThenFiring drives the ok→pending→firing state machine
// with an injected clock: the condition must hold for the rule's For
// duration before it fires, and clearing the condition resets it.
func TestAlertPendingThenFiring(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("db2www_http_requests_total", "h", "code", "500")
	s, clk := newTestStore(t, Config{
		Registry: reg,
		Rules: []Rule{{Fn: "rate", Series: Series5xx, Op: ">",
			Threshold: 1, For: 3 * time.Second, Severity: SeverityCritical}},
	})
	snap := func(series string) float64 { return reg.Snapshot()[series] }
	const critical, transitions = `db2www_history_alerts_firing{severity="critical"}`, "db2www_history_alert_transitions_total"

	clk.tick(s, time.Second) // baseline, no rate yet
	if st := state(s, 0); st != "ok" {
		t.Fatalf("initial state = %q", st)
	}

	// Push 5xx at 10/s: condition true, but must pend for 3s.
	c.Add(10)
	clk.tick(s, time.Second)
	if st := state(s, 0); st != "pending" || snap(critical) != 0 {
		t.Fatalf("after 1 hot scrape: state = %q, critical gauge %v; want pending, 0", st, snap(critical))
	}
	c.Add(10)
	clk.tick(s, time.Second) // held 1s
	c.Add(10)
	clk.tick(s, time.Second) // held 2s
	if n := snap(transitions); n != 0 {
		t.Fatalf("fired before For elapsed: %v transitions", n)
	}
	c.Add(10)
	clk.tick(s, time.Second) // held 3s → fires
	if st := state(s, 0); st != "firing" || snap(critical) != 1 || snap(transitions) != 1 {
		t.Fatalf("state = %q, critical gauge %v, %v transitions; want firing, 1, 1", st, snap(critical), snap(transitions))
	}

	// Still firing: no second transition.
	c.Add(10)
	clk.tick(s, time.Second)
	if n := snap(transitions); n != 1 {
		t.Fatalf("re-fired while already firing: %v transitions", n)
	}

	// Traffic stops: rate drops to 0 → back to ok, gauges cleared.
	clk.tick(s, time.Second)
	if st := state(s, 0); st != "ok" {
		t.Fatalf("after recovery: state = %q", st)
	}
	if w, crit := snap(`db2www_history_alerts_firing{severity="warning"}`), snap(critical); w != 0 || crit != 0 {
		t.Fatalf("firing counts after recovery = %v, %v", w, crit)
	}

	// A second incident must re-fire (transition counted again).
	for i := 0; i < 4; i++ {
		c.Add(10)
		clk.tick(s, time.Second)
	}
	if n := snap(transitions); n != 2 {
		t.Fatalf("transition counter = %v, want 2", n)
	}
}

// TestAlertPendingResetOnDip: a dip below threshold before For elapses
// restarts the streak.
func TestAlertPendingResetOnDip(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.FloatGauge("load", "t")
	s, clk := newTestStore(t, Config{
		Registry: reg,
		Rules:    []Rule{{Series: "load", Op: ">", Threshold: 5, For: 2 * time.Second}},
	})
	warning := func() float64 { return reg.Snapshot()[`db2www_history_alerts_firing{severity="warning"}`] }
	g.Set(9)
	clk.tick(s, time.Second) // pending starts
	clk.advance(time.Second)
	g.Set(1)
	s.Scrape() // dip resets the streak
	g.Set(9)
	clk.tick(s, time.Second) // pending restarts
	clk.tick(s, time.Second) // held 1s — not enough yet
	if state(s, 0) != "pending" {
		t.Fatalf("state %q despite streak reset", state(s, 0))
	}
	clk.tick(s, time.Second) // held 2s → fires, at the default severity
	if state(s, 0) != "firing" || warning() != 1 {
		t.Fatalf("state %q, warning gauge %v; want firing, 1", state(s, 0), warning())
	}
}

func TestAlertLessThanOperatorAndGauges(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("workers", "t")
	s, clk := newTestStore(t, Config{
		Registry: reg,
		Rules: []Rule{{Series: "workers", Op: "<", Threshold: 2,
			Severity: SeverityCritical}},
	})
	critical := func() float64 { return reg.Snapshot()[`db2www_history_alerts_firing{severity="critical"}`] }
	g.Set(5)
	clk.tick(s, time.Second)
	if critical() != 0 {
		t.Fatal("firing with workers=5")
	}
	g.Set(1)
	clk.tick(s, time.Second) // For=0 → fires immediately
	if critical() != 1 {
		t.Fatal("not firing with workers=1 < 2")
	}
}

func TestAlertMissingSeriesStaysOK(t *testing.T) {
	s, clk := newTestStore(t, Config{
		Rules: []Rule{{Series: "does_not_exist", Op: "<", Threshold: 1}},
	})
	clk.tick(s, time.Second)
	if st := state(s, 0); st != "ok" {
		t.Fatalf("missing-series rule state = %q", st)
	}
}
