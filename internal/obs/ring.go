package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Ring is a fixed-capacity buffer of the most recent finished traces —
// the /server-status "recent traces" view. Writers overwrite the oldest
// entry; Snapshot returns newest-first copies.
type Ring struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	full bool
}

// NewRing returns a ring holding up to n traces (n < 1 is clamped to 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]*Trace, n)}
}

// Add records a finished trace. Nil ring or nil trace no-ops.
func (r *Ring) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the buffered traces, newest first.
func (r *Ring) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]*Trace, 0, n)
	// Walk backwards from the most recent write position.
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		if r.buf[idx] != nil {
			out = append(out, r.buf[idx])
		}
	}
	return out
}

// StatusRows renders the ring for a /server-status section: one row per
// trace, newest first — "trace-id status method path" against the total
// time and a span waterfall.
func (r *Ring) StatusRows() [][2]string {
	traces := r.Snapshot()
	rows := make([][2]string, 0, len(traces))
	for _, t := range traces {
		key := fmt.Sprintf("%s %d %s %s", t.ID, t.Status, t.Method, t.Path)
		rows = append(rows, [2]string{key, FormatSpans(t)})
	}
	if len(rows) == 0 {
		rows = append(rows, [2]string{"(no traces yet)", ""})
	}
	return rows
}

// FormatSpans renders a trace's total plus span breakdown on one line:
//
//	12.3ms; parse=0.1ms sql-exec:Q1=10.2ms [rows=500 cache=miss]
func FormatSpans(t *Trace) string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(roundDur(t.Total).String())
	if len(t.Spans) > 0 {
		sb.WriteString(";")
		for _, sp := range t.Spans {
			sb.WriteString(" ")
			sb.WriteString(sp.Name())
			sb.WriteString("=")
			sb.WriteString(roundDur(sp.Dur).String())
			if note := t.Note(sp); note != "" {
				sb.WriteString(" [")
				sb.WriteString(note)
				sb.WriteString("]")
			}
		}
	}
	return sb.String()
}

// roundDur trims a duration for display.
func roundDur(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}
