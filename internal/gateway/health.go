package gateway

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// Health serves the gateway's liveness and readiness endpoints:
//
//	GET /healthz → liveness: 200 as long as the process can serve HTTP.
//	GET /readyz  → readiness: runs every registered check and returns 200
//	               only when all pass, 503 otherwise, with per-check JSON
//	               detail either way.
//
// Liveness answers "should the supervisor restart this process";
// readiness answers "should a load balancer send it traffic". gatewayd
// registers db-open, lint-preflight, and no-5xx-burst checks.
type Health struct {
	mu     sync.Mutex
	checks map[string]func() error
}

// NewHealth returns an empty health registry (liveness already works;
// readiness passes vacuously until checks are added).
func NewHealth() *Health {
	return &Health{checks: map[string]func() error{}}
}

// AddCheck registers a named readiness check. A nil error means ready.
// Re-registering a name replaces the previous check.
func (h *Health) AddCheck(name string, check func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.checks[name] = check
}

// checkResult is one check's outcome on the /readyz body.
type checkResult struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// run executes every check, in the order of their names.
func (h *Health) run() (results []checkResult, ready bool) {
	h.mu.Lock()
	names := make([]string, 0, len(h.checks))
	checks := make(map[string]func() error, len(h.checks))
	for name, check := range h.checks {
		names = append(names, name)
		checks[name] = check
	}
	h.mu.Unlock()
	sort.Strings(names)
	ready = true
	for _, name := range names {
		r := checkResult{Name: name, OK: true}
		if err := checks[name](); err != nil {
			r.OK, r.Error = false, err.Error()
			ready = false
		}
		results = append(results, r)
	}
	return results, ready
}

// Liveness is the /healthz handler. Reaching it at all proves the
// process is serving, so it always answers 200 — with a JSON body for
// symmetry with /readyz.
func (h *Health) Liveness() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
}

// Readiness is the /readyz handler: 200 when every check passes, 503
// otherwise, always with per-check detail.
func (h *Health) Readiness() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		results, ready := h.run()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		status, code := "ok", http.StatusOK
		if !ready {
			status, code = "unavailable", http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"status": status, "checks": results})
	})
}
