package history

import (
	"strings"
	"testing"
	"time"

	"db2www/internal/obs"
)

func TestParseRule(t *testing.T) {
	r, err := ParseRule("5xx_rate: rate(http_5xx_total) > 0.5 for 30s critical")
	if err != nil {
		t.Fatal(err)
	}
	want := Rule{Name: "5xx_rate", Fn: "rate", Series: "http_5xx_total",
		Op: ">", Threshold: 0.5, For: 30 * time.Second, Severity: SeverityCritical}
	if r != want {
		t.Fatalf("ParseRule = %+v, want %+v", r, want)
	}
	// Round-trips through String.
	r2, err := ParseRule(r.String())
	if err != nil || r2 != r {
		t.Fatalf("round-trip %q → %+v, %v", r.String(), r2, err)
	}

	// Defaults: fn=value, severity=warning, no for.
	r, err = ParseRule("age: db2www_sqldb_oldest_snapshot_age_seconds > 300")
	if err != nil {
		t.Fatal(err)
	}
	if r.Fn != "value" || r.Severity != SeverityWarning || r.For != 0 {
		t.Fatalf("defaults not applied: %+v", r)
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"noname rate(x) > 1",   // name missing colon
		": x > 1",              // empty name
		"r: x >= 1",            // bad operator
		"r: x > banana",        // bad threshold
		"r: frobnicate(x) > 1", // unknown fn
		"r: rate(x > 1",        // unterminated call
		"r: x > 1 for",         // for without duration
		"r: x > 1 for soon",    // bad duration
		"r: x > 1 sometimes",   // unknown trailing token
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Fatalf("ParseRule(%q) accepted", bad)
		}
	}
}

func TestParseRulesSkipsCommentsAndBlanks(t *testing.T) {
	rules, err := ParseRules(`
# production alert set
5xx_rate: rate(http_5xx_total) > 0.5 for 30s critical

slow_p99: p99(db2www_http_request_seconds) > 2 for 1m warning
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Name != "5xx_rate" || rules[1].Name != "slow_p99" {
		t.Fatalf("ParseRules = %+v", rules)
	}
	if _, err := ParseRules("ok: x > 1\nbroken line here\n"); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Fatalf("ParseRules error = %v, want line 2 context", err)
	}
}

func TestDefaultRulesParseable(t *testing.T) {
	for _, r := range DefaultRules() {
		rt, err := ParseRule(r.String())
		if err != nil || rt != r {
			t.Fatalf("default rule %q does not round-trip: %+v, %v", r.String(), rt, err)
		}
	}
}

// TestAlertPendingThenFiring drives the ok→pending→firing state machine
// with an injected clock: the condition must hold for the rule's For
// duration before it fires, and clearing the condition resets it.
func TestAlertPendingThenFiring(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("db2www_http_requests_total", "h", "code", "500")
	var firedRules []Rule
	var firedValues []float64
	s, clk := newTestStore(t, Config{
		Registry:  reg,
		Interval:  time.Second,
		Retention: time.Minute,
		Rules: []Rule{{Name: "errs", Fn: "rate", Series: Series5xx, Op: ">",
			Threshold: 1, For: 3 * time.Second, Severity: SeverityCritical}},
		OnAlert: func(r Rule, v float64) {
			firedRules = append(firedRules, r)
			firedValues = append(firedValues, v)
		},
	})

	clk.tick(s, time.Second) // baseline, no rate yet
	if st := s.Alerts()[0]; st.State != StateOK {
		t.Fatalf("initial state = %q", st.State)
	}

	// Push 5xx at 10/s: condition true, but must pend for 3s.
	c.Add(10)
	clk.tick(s, time.Second)
	if st := s.Alerts()[0]; st.State != StatePending {
		t.Fatalf("after 1 hot scrape: state = %q, want pending", st.State)
	}
	if s.CriticalFiring() {
		t.Fatal("critical firing while only pending")
	}
	c.Add(10)
	clk.tick(s, time.Second) // held 1s
	c.Add(10)
	clk.tick(s, time.Second) // held 2s
	if len(firedRules) != 0 {
		t.Fatalf("fired before For elapsed: %+v", firedRules)
	}
	c.Add(10)
	clk.tick(s, time.Second) // held 3s → fires
	if st := s.Alerts()[0]; st.State != StateFiring {
		t.Fatalf("state = %q, want firing", st.State)
	}
	if !s.CriticalFiring() {
		t.Fatal("CriticalFiring = false while critical rule fires")
	}
	if len(firedRules) != 1 || firedRules[0].Name != "errs" || firedValues[0] != 10 {
		t.Fatalf("OnAlert calls = %+v %v", firedRules, firedValues)
	}

	// Still firing: no duplicate OnAlert.
	c.Add(10)
	clk.tick(s, time.Second)
	if len(firedRules) != 1 {
		t.Fatalf("OnAlert re-fired while already firing: %d calls", len(firedRules))
	}

	// Traffic stops: rate drops to 0 → back to ok, counters cleared.
	clk.tick(s, time.Second)
	if st := s.Alerts()[0]; st.State != StateOK {
		t.Fatalf("after recovery: state = %q", st.State)
	}
	if s.CriticalFiring() {
		t.Fatal("critical still firing after recovery")
	}
	snap := reg.Snapshot()
	if w, crit := snap[`db2www_history_alerts_firing{severity="warning"}`],
		snap[`db2www_history_alerts_firing{severity="critical"}`]; w != 0 || crit != 0 {
		t.Fatalf("firing counts after recovery = %v, %v", w, crit)
	}

	// A second incident must re-fire (transition counted again).
	for i := 0; i < 4; i++ {
		c.Add(10)
		clk.tick(s, time.Second)
	}
	if len(firedRules) != 2 {
		t.Fatalf("second incident did not re-fire: %d calls", len(firedRules))
	}
	if got := reg.Snapshot()["db2www_history_alert_transitions_total"]; got != 2 {
		t.Fatalf("transition counter = %v, want 2", got)
	}
}

// TestAlertPendingResetOnDip: a dip below threshold before For elapses
// restarts the streak.
func TestAlertPendingResetOnDip(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.FloatGauge("load", "t")
	fired := 0
	s, clk := newTestStore(t, Config{
		Registry: reg, Interval: time.Second, Retention: time.Minute,
		Rules:   []Rule{{Name: "hot", Series: "load", Op: ">", Threshold: 5, For: 2 * time.Second}},
		OnAlert: func(Rule, float64) { fired++ },
	})
	g.Set(9)
	clk.tick(s, time.Second) // pending starts
	clk.advance(time.Second)
	g.Set(1)
	s.Scrape() // dip resets the streak
	g.Set(9)
	clk.tick(s, time.Second) // pending restarts
	clk.tick(s, time.Second) // held 1s — not enough yet
	if fired != 0 {
		t.Fatalf("fired despite streak reset")
	}
	clk.tick(s, time.Second) // held 2s → fires
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if st := s.Alerts()[0]; st.Rule.Severity != SeverityWarning {
		t.Fatalf("default severity = %q", st.Rule.Severity)
	}
}

func TestAlertLessThanOperatorAndGauges(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("workers", "t")
	s, clk := newTestStore(t, Config{
		Registry: reg, Interval: time.Second, Retention: time.Minute,
		Rules: []Rule{{Name: "starved", Series: "workers", Op: "<", Threshold: 2,
			Severity: SeverityCritical}},
	})
	g.Set(5)
	clk.tick(s, time.Second)
	if s.CriticalFiring() {
		t.Fatal("firing with workers=5")
	}
	g.Set(1)
	clk.tick(s, time.Second) // For=0 → fires immediately
	if !s.CriticalFiring() {
		t.Fatal("not firing with workers=1 < 2")
	}
	// Firing gauges exported per severity.
	snap := reg.Snapshot()
	if snap[`db2www_history_alerts_firing{severity="critical"}`] != 1 {
		t.Fatalf("critical firing gauge = %v", snap[`db2www_history_alerts_firing{severity="critical"}`])
	}
}

func TestAlertMissingSeriesStaysOK(t *testing.T) {
	s, clk := newTestStore(t, Config{
		Interval: time.Second, Retention: time.Minute,
		Rules: []Rule{{Name: "ghost", Series: "does_not_exist", Op: ">", Threshold: 0}},
	})
	clk.tick(s, time.Second)
	st := s.Alerts()[0]
	if st.State != StateOK || st.HasValue {
		t.Fatalf("missing-series rule state = %+v", st)
	}
}
