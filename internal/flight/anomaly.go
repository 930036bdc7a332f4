package flight

import (
	"errors"
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
	burst := a.burstAt(nw)
	a.mu.Unlock()

	reason := ""
	if burst {
		reason = burstReason()
	} else if burn := slo.Burn(macro); burn >= burnThreshold {
		reason = fmt.Sprintf("burn-rate:%.1f", burn)
	}
	a.fire(reason)
}

// burstAt reports whether the last burst5xx 5xx all fell inside the
// burstWindow that ends at nw: whether the oldest time the ring holds
// does. The caller holds a.mu.
func (a *anomaly) burstAt(nw time.Time) bool {
	oldest := a.last[a.next]
	return !oldest.IsZero() && oldest.After(nw.Add(-burstWindow))
}

func burstReason() string { return fmt.Sprintf("5xx-burst:%d-in-%s", burst5xx, burstWindow) }

// fire captures for reason, at most once per pprofMinInterval.
func (a *anomaly) fire(reason string) {
	if reason == "" {
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

// Burst5xx is nil unless a 5xx burst is in progress: the last burst5xx
// 5xx all fell inside the last burstWindow, on the anomaly clock. It is
// gatewayd's /readyz check, so the incident that triggers a pprof capture
// also takes the server out of a load balancer's rotation, until the
// burst has left the window.
func (r *Recorder) Burst5xx() error {
	if r == nil {
		return nil
	}
	a := r.anomaly
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.burstAt(a.now()) {
		return errors.New(burstReason())
	}
	return nil
}

// TestHookAnomaly exposes the recorder's anomaly clock/capture hooks to
// tests in other packages (the gateway's readiness test injects a burst,
// asserts one capture fired, and moves the clock past the window) without
// exporting the trigger itself.
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
