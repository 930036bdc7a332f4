package flight

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"db2www/internal/obs"
)

// anomaly watches the request stream for two distress signals — a
// fast-window burn rate over burnThreshold, or burst5xx 5xx within
// burstWindow — and captures one goroutine+heap pprof snapshot into the
// flight dir when either trips, rate-limited so a sustained incident
// yields a snapshot per pprofMinInterval, not per request.
type anomaly struct {
	dir string

	mu   sync.Mutex
	now  func() time.Time
	last []time.Time // the times of the last burst5xx 5xx, a ring
	// next is where the next 5xx goes: the oldest time the ring holds.
	next        int
	lastCapture time.Time

	// capture is swappable in tests; the default writes pprof profiles.
	capture func(reason string, t time.Time)

	mCaptures *obs.Counter
}

func newAnomaly(dir string, reg *obs.Registry) *anomaly {
	a := &anomaly{dir: dir, now: time.Now, last: make([]time.Time, burst5xx)}
	a.capture = a.writeProfiles
	if reg != nil {
		a.mCaptures = reg.Counter("db2www_flight_pprof_captures_total", "anomaly-triggered pprof captures")
	}
	return a
}

// note ingests one finished request and fires a capture if a trigger
// condition holds. Called on the request path, so the hot (healthy)
// case is a status check and nothing else, and a 5xx costs the same
// however many came before it.
func (a *anomaly) note(status int, macro string, slo *SLO) {
	if a == nil || status < 500 {
		return
	}
	a.mu.Lock()
	nw := a.now()
	a.last[a.next] = nw
	a.next = (a.next + 1) % len(a.last)
	// A burst is the burst5xx-th most recent 5xx, this one counted, inside
	// the window: the oldest time the ring holds.
	oldest := a.last[a.next]
	burst := !oldest.IsZero() && oldest.After(nw.Add(-burstWindow))
	a.mu.Unlock()

	reason := ""
	if burst {
		reason = fmt.Sprintf("5xx-burst:%d-in-%s", burst5xx, burstWindow)
	} else if burn := slo.Burn(macro); burn >= burnThreshold {
		reason = fmt.Sprintf("burn-rate:%.1f", burn)
	}
	a.fire(reason)
}

// fire captures for an externally-supplied reason, subject to the same
// rate limit as the internal triggers.
func (a *anomaly) fire(reason string) {
	if a == nil || reason == "" {
		return
	}
	a.mu.Lock()
	nw := a.now()
	if !a.lastCapture.IsZero() && nw.Sub(a.lastCapture) < pprofMinInterval {
		a.mu.Unlock()
		return
	}
	a.lastCapture = nw
	capture := a.capture
	a.mu.Unlock()

	if a.mCaptures != nil {
		a.mCaptures.Inc()
	}
	capture(reason, nw)
}

// writeProfiles dumps goroutine and heap profiles into the flight dir.
// No dir, no capture — the trigger still counts, so the metric shows
// the anomaly even when persistence is off.
func (a *anomaly) writeProfiles(reason string, t time.Time) {
	if a.dir == "" {
		return
	}
	stamp := t.UTC().Format("20060102T150405")
	for _, name := range []string{"goroutine", "heap"} {
		p := pprof.Lookup(name)
		if p == nil {
			continue
		}
		path := filepath.Join(a.dir, fmt.Sprintf("pprof-%s-%s.pb.gz", name, stamp))
		f, err := os.Create(path)
		if err != nil {
			continue
		}
		_ = p.WriteTo(f, 0)
		f.Close()
	}
	// A tiny sidecar notes why the snapshot exists.
	_ = os.WriteFile(filepath.Join(a.dir, fmt.Sprintf("pprof-%s.reason", stamp)),
		[]byte(reason+"\n"), 0o644)
}

// setClock and setCapture are test hooks.
func (a *anomaly) setClock(now func() time.Time) {
	a.mu.Lock()
	a.now = now
	a.mu.Unlock()
}

func (a *anomaly) setCapture(fn func(reason string, t time.Time)) {
	a.mu.Lock()
	a.capture = fn
	a.mu.Unlock()
}

// CaptureAnomaly triggers the recorder's anomaly pprof capture for an
// incident detected outside the request path — gatewayd calls it when a
// critical alert rule starts firing, so the profile evidence for "what
// was the process doing when the alert tripped" lands in the flight dir
// alongside the request records. Rate-limited exactly like the internal
// burn-rate and 5xx-burst triggers.
func (r *Recorder) CaptureAnomaly(reason string) {
	if r == nil {
		return
	}
	r.anomaly.fire(reason)
}

// TestHookAnomaly exposes the recorder's anomaly clock/capture hooks to
// tests in other packages (the gateway integration test injects a
// burst and asserts a capture fired) without exporting the trigger
// itself.
func (r *Recorder) TestHookAnomaly(now func() time.Time, capture func(reason string, t time.Time)) {
	if r == nil {
		return
	}
	if now != nil {
		r.anomaly.setClock(now)
	}
	if capture != nil {
		r.anomaly.setCapture(capture)
	}
}
