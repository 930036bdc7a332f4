package history

import (
	"sync"
	"time"
)

// Alert severities.
const (
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// Rule is one alert rule over a stored series: Fn of the series compared
// against Threshold, which must hold for For before the rule fires. Fn is
// "value" (the newest sample) or "rate" (the per-second rate of a counter
// over the two newest samples); Op is ">" or "<".
type Rule struct {
	Fn        string
	Series    string
	Op        string
	Threshold float64
	For       time.Duration
	Severity  string
}

// DefaultRules are the rules the benchmark's in-process stack installs:
// sustained 5xx traffic is critical, a stuck MVCC snapshot holding back
// vacuum is a warning.
func DefaultRules() []Rule {
	return []Rule{
		{Fn: "rate", Series: Series5xx, Op: ">", Threshold: 0.5,
			For: 30 * time.Second, Severity: SeverityCritical},
		{Fn: "value", Series: "db2www_sqldb_oldest_snapshot_age_seconds", Op: ">",
			Threshold: 300, For: 30 * time.Second, Severity: SeverityWarning},
	}
}

// ruleState tracks one rule's condition streak.
type ruleState struct {
	rule         Rule
	pendingSince time.Time // zero = condition false at last eval
	firing       bool
}

// alertEngine evaluates rules against a store after each scrape.
type alertEngine struct {
	mu    sync.Mutex
	rules []*ruleState
}

func newAlertEngine(rules []Rule) *alertEngine {
	e := &alertEngine{}
	for _, r := range rules {
		if r.Fn == "" {
			r.Fn = "value"
		}
		if r.Severity == "" {
			r.Severity = SeverityWarning
		}
		e.rules = append(e.rules, &ruleState{rule: r})
	}
	return e
}

// evalValue computes a rule's current input from the store. A rate is
// the one over the last scrape interval.
func evalValue(s *Store, r Rule) (float64, bool) {
	if r.Fn == "rate" {
		rates := s.rates(r.Series, 3*interval) // the two newest samples are inside
		if len(rates) == 0 {
			return 0, false
		}
		return rates[len(rates)-1], true
	}
	return s.last(r.Series)
}

// eval runs every rule at scrape time t and returns how many rules just
// transitioned into firing.
func (e *alertEngine) eval(s *Store, t time.Time) (fired int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.rules {
		v, ok := evalValue(s, st.rule)
		holds := ok && ((st.rule.Op == ">" && v > st.rule.Threshold) ||
			(st.rule.Op == "<" && v < st.rule.Threshold))
		if !holds {
			st.pendingSince = time.Time{}
			st.firing = false
			continue
		}
		if st.pendingSince.IsZero() {
			st.pendingSince = t
		}
		if !st.firing && t.Sub(st.pendingSince) >= st.rule.For {
			st.firing = true
			fired++
		}
	}
	return fired
}

// firingCounts returns how many rules are firing per severity.
func (e *alertEngine) firingCounts() (warning, critical int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.rules {
		if !st.firing {
			continue
		}
		if st.rule.Severity == SeverityCritical {
			critical++
		} else {
			warning++
		}
	}
	return
}
