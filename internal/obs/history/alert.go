package history

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Alert severities. A firing critical rule fails /readyz; warnings only
// show on the dashboard and /debug/history.
const (
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// Alert states.
const (
	StateOK      = "ok"
	StatePending = "pending" // condition holds, `for` duration not yet served
	StateFiring  = "firing"
)

// Rule is one alert rule over a stored series: a function of the series
// compared against a threshold, which must hold for For before the rule
// fires. The text form (ParseRule) is:
//
//	<name>: <expr> <op> <threshold> [for <duration>] [warning|critical]
//
// where <expr> is a series key (instant value of the newest sample) or
// fn(series) with fn one of rate (per-second counter rate over the two
// newest samples), deriv (rate of change of a gauge over the For
// window), or p50/p90/p99 (that quantile of a histogram's observations
// between the two newest scrapes). Examples:
//
//	5xx_rate: rate(http_5xx_total) > 0.5 for 30s critical
//	snapshot_age: db2www_sqldb_oldest_snapshot_age_seconds > 300 for 1m
//	slow_p99: p99(db2www_http_request_seconds) > 2 for 1m warning
type Rule struct {
	Name      string        `json:"name"`
	Fn        string        `json:"fn"` // "value", "rate", "deriv", "p50", "p90", "p99"
	Series    string        `json:"series"`
	Op        string        `json:"op"` // ">" or "<"
	Threshold float64       `json:"threshold"`
	For       time.Duration `json:"for"`
	Severity  string        `json:"severity"`
}

// String renders the rule back in its ParseRule form.
func (r Rule) String() string {
	expr := r.Series
	if r.Fn != "" && r.Fn != "value" {
		expr = r.Fn + "(" + r.Series + ")"
	}
	s := fmt.Sprintf("%s: %s %s %g", r.Name, expr, r.Op, r.Threshold)
	if r.For > 0 {
		s += " for " + r.For.String()
	}
	return s + " " + r.Severity
}

// ParseRule parses one rule line (see Rule for the grammar).
func ParseRule(line string) (Rule, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Rule{}, fmt.Errorf("history: rule %q: want \"name: expr op threshold [for dur] [severity]\"", line)
	}
	r := Rule{Severity: SeverityWarning, Fn: "value"}
	name := fields[0]
	if !strings.HasSuffix(name, ":") {
		return Rule{}, fmt.Errorf("history: rule %q: name must end with ':'", line)
	}
	r.Name = strings.TrimSuffix(name, ":")
	if r.Name == "" {
		return Rule{}, fmt.Errorf("history: rule %q: empty name", line)
	}
	expr := fields[1]
	if i := strings.IndexByte(expr, '('); i >= 0 {
		if !strings.HasSuffix(expr, ")") {
			return Rule{}, fmt.Errorf("history: rule %q: unterminated %q", line, expr)
		}
		r.Fn = expr[:i]
		r.Series = expr[i+1 : len(expr)-1]
		switch r.Fn {
		case "rate", "deriv", "p50", "p90", "p99":
		default:
			return Rule{}, fmt.Errorf("history: rule %q: unknown function %q (want rate, deriv, p50, p90, or p99)", line, r.Fn)
		}
	} else {
		r.Series = expr
	}
	if r.Series == "" {
		return Rule{}, fmt.Errorf("history: rule %q: empty series", line)
	}
	r.Op = fields[2]
	if r.Op != ">" && r.Op != "<" {
		return Rule{}, fmt.Errorf("history: rule %q: operator %q (want > or <)", line, r.Op)
	}
	thr, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return Rule{}, fmt.Errorf("history: rule %q: threshold %q: %v", line, fields[3], err)
	}
	r.Threshold = thr
	rest := fields[4:]
	for len(rest) > 0 {
		switch rest[0] {
		case "for":
			if len(rest) < 2 {
				return Rule{}, fmt.Errorf("history: rule %q: 'for' needs a duration", line)
			}
			d, err := time.ParseDuration(rest[1])
			if err != nil {
				return Rule{}, fmt.Errorf("history: rule %q: duration %q: %v", line, rest[1], err)
			}
			r.For = d
			rest = rest[2:]
		case SeverityWarning, SeverityCritical:
			r.Severity = rest[0]
			rest = rest[1:]
		default:
			return Rule{}, fmt.Errorf("history: rule %q: unexpected token %q", line, rest[0])
		}
	}
	return r, nil
}

// ParseRules parses a rules file: one rule per line, blank lines and
// #-comments skipped.
func ParseRules(src string) ([]Rule, error) {
	var out []Rule
	for i, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// DefaultRules are the rules gatewayd installs when -history is on and
// no -alert-rules file overrides them: sustained 5xx traffic is critical
// (it fails /readyz), a stuck MVCC snapshot holding back vacuum is a
// warning.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "5xx_rate", Fn: "rate", Series: Series5xx, Op: ">",
			Threshold: 0.5, For: 30 * time.Second, Severity: SeverityCritical},
		{Name: "oldest_snapshot_age", Fn: "value",
			Series: "db2www_sqldb_oldest_snapshot_age_seconds", Op: ">",
			Threshold: 300, For: 30 * time.Second, Severity: SeverityWarning},
	}
}

// AlertStatus is one rule's live state for /debug/history and the
// dashboard.
type AlertStatus struct {
	Rule     Rule      `json:"rule"`
	State    string    `json:"state"`
	Since    time.Time `json:"since,omitempty"`
	Value    float64   `json:"value"`
	HasValue bool      `json:"has_value"`
}

// ruleState tracks one rule's condition streak.
type ruleState struct {
	rule         Rule
	pendingSince time.Time // zero = condition false at last eval
	firing       bool
	lastValue    float64
	hasValue     bool
}

type firing struct {
	rule  Rule
	value float64
}

// alertEngine evaluates rules against a store after each scrape. It has
// its own lock so /readyz and the dashboard can read state while a
// scrape runs.
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

// evalValue computes a rule's current input from the store. The rate and
// quantile functions look at the two newest samples — the last scrape
// interval — while deriv spans the rule's For window (min one interval).
func evalValue(s *Store, r Rule) (float64, bool) {
	span := 3 * s.cfg.Interval // generous: the two newest samples are inside
	switch r.Fn {
	case "rate":
		pts := s.Rate(r.Series, span)
		if len(pts) == 0 {
			return 0, false
		}
		return pts[len(pts)-1].V, true
	case "deriv":
		window := r.For
		if window < 2*s.cfg.Interval {
			window = 2 * s.cfg.Interval
		}
		return s.Deriv(r.Series, window)
	case "p50", "p90", "p99":
		q := map[string]float64{"p50": 0.5, "p90": 0.9, "p99": 0.99}[r.Fn]
		pts := s.QuantileSeries(r.Series, q, span)
		if len(pts) == 0 {
			return 0, false
		}
		return pts[len(pts)-1].V, true
	default: // "value"
		return s.Last(r.Series)
	}
}

// eval runs every rule at scrape time t, returning the rules that just
// transitioned into firing.
func (e *alertEngine) eval(s *Store, t time.Time) []firing {
	e.mu.Lock()
	defer e.mu.Unlock()
	var fired []firing
	for _, st := range e.rules {
		v, ok := evalValue(s, st.rule)
		st.lastValue, st.hasValue = v, ok
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
			fired = append(fired, firing{rule: st.rule, value: v})
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

// Alerts returns every rule's live status.
func (s *Store) Alerts() []AlertStatus {
	e := s.alerts
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]AlertStatus, 0, len(e.rules))
	for _, st := range e.rules {
		a := AlertStatus{Rule: st.rule, State: StateOK,
			Value: st.lastValue, HasValue: st.hasValue}
		if st.firing {
			a.State = StateFiring
			a.Since = st.pendingSince
		} else if !st.pendingSince.IsZero() {
			a.State = StatePending
			a.Since = st.pendingSince
		}
		out = append(out, a)
	}
	return out
}

// CriticalFiring reports whether any critical-severity rule is firing —
// the signal /readyz gates on.
func (s *Store) CriticalFiring() bool {
	_, critical := s.alerts.firingCounts()
	return critical > 0
}
