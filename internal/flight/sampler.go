package flight

import (
	"hash/fnv"
	"time"
)

// Sampler is the tail-based retention policy: the decision is taken
// after the request finishes, when its outcome is known, so the
// interesting tail — errors and slow requests — is kept in full while
// the healthy bulk is sampled down.
type Sampler struct {
	// Rate is the keep probability for healthy requests, in [0, 1].
	Rate float64
	// SlowThreshold marks a request slow (and therefore always kept).
	// Zero keeps every request.
	SlowThreshold time.Duration
}

// Decide returns the retention decision for one finished request.
// Errors (5xx) and slow requests are never dropped, regardless of Rate;
// the healthy tail is kept when a hash of the trace ID falls inside
// Rate, so the decision is deterministic per trace — re-running a
// request with the same X-Trace-Id reproduces it.
func (s Sampler) Decide(status int, total time.Duration, traceID string) string {
	if status >= 500 {
		return KeptError
	}
	if total >= s.SlowThreshold {
		return KeptSlow
	}
	if s.Rate >= 1 {
		return KeptSampled
	}
	if s.Rate > 0 && traceFraction(traceID) < s.Rate {
		return KeptSampled
	}
	return Dropped
}

// traceFraction maps a trace ID onto [0, 1) via FNV-1a.
func traceFraction(id string) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return float64(h.Sum64()>>11) / float64(1<<53)
}
