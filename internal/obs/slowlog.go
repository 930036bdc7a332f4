package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// SlowLog writes one line per request whose total time crosses a
// threshold — the operator's answer to "which macro was slow, and where
// did the time go?". Each line carries the trace ID (for correlation
// with the access log and the client's X-Trace-Id header), the macro
// path, the per-phase breakdown, and — via the sql-exec span notes — the
// fully-substituted SQL and row counts.
type SlowLog struct {
	threshold time.Duration
	now       func() time.Time

	mu sync.Mutex
	w  io.Writer
	n  int64
}

// NewSlowLog builds a slow log writing to w for requests over threshold.
// A threshold <= 0 logs every request (useful for debugging, ruinous in
// production).
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	return &SlowLog{w: w, threshold: threshold, now: time.Now}
}

// SetClock overrides the timestamp clock (tests).
func (l *SlowLog) SetClock(now func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	l.now = now
}

// Threshold returns the configured threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Count returns how many lines have been written.
func (l *SlowLog) Count() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Record writes the trace if it crossed the threshold, reporting whether
// a line was written. Nil log or nil trace no-ops.
func (l *SlowLog) Record(t *Trace) bool {
	if l == nil || t == nil {
		return false
	}
	if t.Total < l.threshold {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	line := fmt.Sprintf("%s trace=%s status=%d total=%s %s %s | %s\n",
		l.now().UTC().Format(time.RFC3339Nano), t.ID, t.Status,
		roundDur(t.Total), t.Method, t.Path, FormatSpans(t))
	if _, err := io.WriteString(l.w, line); err != nil {
		return false
	}
	l.n++
	Default.Counter("db2www_slowlog_lines_total",
		"requests recorded in the slow-query log").Inc()
	return true
}
