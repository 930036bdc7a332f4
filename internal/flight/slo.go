package flight

import (
	"sync"
	"time"

	"db2www/internal/obs"
)

// SLOConfig declares the service objectives the engine tracks per macro.
type SLOConfig struct {
	// AvailabilityTarget is the fraction of requests that must not be
	// 5xx, e.g. 0.999. The error budget is 1 - target.
	AvailabilityTarget float64
	// LatencyThreshold is the latency objective's cut-off: the fraction
	// sloLatencyTarget of requests must finish under it.
	LatencyThreshold time.Duration
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.AvailabilityTarget <= 0 || c.AvailabilityTarget >= 1 {
		c.AvailabilityTarget = 0.999
	}
	if c.LatencyThreshold <= 0 {
		c.LatencyThreshold = 250 * time.Millisecond
	}
	return c
}

// What every SLO engine runs with; in-package tests change them.
var (
	// sloLatencyTarget is the fraction of requests that must finish under
	// LatencyThreshold.
	sloLatencyTarget = 0.99
	// sloMaxMacros caps how many distinct macros get their own windows;
	// beyond it, new macros aggregate into the "_other" bucket so a client
	// scanning macro names cannot grow SLO memory without bound.
	sloMaxMacros = 64
)

// Window geometries: a short window that reacts fast and a long window
// that rejects blips — the standard multi-window burn-rate pairing.
const (
	shortWindow       = 5 * time.Minute
	shortBucket       = time.Second
	longWindow        = time.Hour
	longBucket        = 30 * time.Second
	overflowMacro     = "_other"
	unattributedMacro = "_none"
)

// SLO tracks availability and latency objectives per macro over sliding
// 5m and 1h windows and reports them as burn rates: the rate at which
// the error budget is being spent, where 1.0 means "exactly on budget"
// and N means the budget burns N times too fast. Safe for concurrent
// use; a nil *SLO no-ops everywhere.
type SLO struct {
	cfg SLOConfig

	mu     sync.Mutex
	now    func() time.Time
	macros map[string]*sloSeries
	order  []string
}

type sloSeries struct {
	short *sloWindow
	long  *sloWindow
}

// sloWindow is a ring of fixed-duration buckets covering one window.
type sloWindow struct {
	bucketDur time.Duration
	buckets   []sloBucket
	// cur is the absolute bucket index (unix time / bucketDur) the ring's
	// write position currently holds; buckets older than the window are
	// zeroed lazily as the index advances.
	cur int64
}

type sloBucket struct {
	total  int64
	errors int64 // 5xx
	slow   int64 // over the latency threshold
}

// NewSLO builds an SLO engine for the given objectives.
func NewSLO(cfg SLOConfig) *SLO {
	return &SLO{
		cfg:    cfg.withDefaults(),
		now:    time.Now,
		macros: map[string]*sloSeries{},
	}
}

// SetClock overrides the window clock (tests). Nil restores time.Now.
func (s *SLO) SetClock(now func() time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	s.now = now
}

// Observe records one finished request against the macro's windows.
// An empty macro attributes to "_none" (requests that never resolved a
// macro: static files, 404s, early 4xx rejections).
func (s *SLO) Observe(macro string, status int, total time.Duration) {
	if s == nil {
		return
	}
	if macro == "" {
		macro = unattributedMacro
	}
	isErr := status >= 500
	isSlow := total >= s.cfg.LatencyThreshold

	s.mu.Lock()
	defer s.mu.Unlock()
	ser, ok := s.macros[macro]
	if !ok {
		if len(s.macros) >= sloMaxMacros {
			macro = overflowMacro
		}
		if ser, ok = s.macros[macro]; !ok {
			ser = &sloSeries{
				short: newSLOWindow(shortWindow, shortBucket),
				long:  newSLOWindow(longWindow, longBucket),
			}
			s.macros[macro] = ser
			s.order = append(s.order, macro)
		}
	}
	nw := s.now()
	for _, w := range []*sloWindow{ser.short, ser.long} {
		b := w.advance(nw)
		b.total++
		if isErr {
			b.errors++
		}
		if isSlow {
			b.slow++
		}
	}
}

func newSLOWindow(span, bucket time.Duration) *sloWindow {
	return &sloWindow{bucketDur: bucket, buckets: make([]sloBucket, int(span/bucket)), cur: -1}
}

// advance moves the window to the bucket covering t, zeroing every
// bucket skipped since the last write, and returns the current bucket.
func (w *sloWindow) advance(t time.Time) *sloBucket {
	idx := t.UnixNano() / int64(w.bucketDur)
	if w.cur < 0 {
		w.cur = idx
	}
	for w.cur < idx {
		w.cur++
		w.buckets[w.cur%int64(len(w.buckets))] = sloBucket{}
	}
	return &w.buckets[idx%int64(len(w.buckets))]
}

// sums totals the window as of t (advancing first so stale buckets drop
// out even when no requests have arrived lately).
func (w *sloWindow) sums(t time.Time) (total, errors, slow int64) {
	w.advance(t)
	for _, b := range w.buckets {
		total += b.total
		errors += b.errors
		slow += b.slow
	}
	return
}

// BurnRates is the per-macro burn-rate snapshot Export and the status
// page render: budget spend rate per objective per window.
type BurnRates struct {
	Macro                  string
	Requests5m, Requests1h int64
	Avail5m, Avail1h       float64
	Lat5m, Lat1h           float64
}

// burnRate converts a bad-event fraction into a budget spend rate.
func burnRate(bad, total int64, target float64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}

// Snapshot returns burn rates for every tracked macro, in first-seen
// order.
func (s *SLO) Snapshot() []BurnRates {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	nw := s.now()
	out := make([]BurnRates, 0, len(s.order))
	for _, macro := range s.order {
		ser := s.macros[macro]
		t5, e5, sl5 := ser.short.sums(nw)
		t1, e1, sl1 := ser.long.sums(nw)
		out = append(out, BurnRates{
			Macro:      macro,
			Requests5m: t5, Requests1h: t1,
			Avail5m: burnRate(e5, t5, s.cfg.AvailabilityTarget),
			Avail1h: burnRate(e1, t1, s.cfg.AvailabilityTarget),
			Lat5m:   burnRate(sl5, t5, sloLatencyTarget),
			Lat1h:   burnRate(sl1, t1, sloLatencyTarget),
		})
	}
	return out
}

// Burn returns the macro's current 5-minute availability burn rate —
// the fast-window signal the anomaly trigger watches.
func (s *SLO) Burn(macro string) float64 {
	if s == nil {
		return 0
	}
	if macro == "" {
		macro = unattributedMacro
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ser, ok := s.macros[macro]
	if !ok {
		ser, ok = s.macros[overflowMacro]
		if !ok {
			return 0
		}
	}
	t, e, _ := ser.short.sums(s.now())
	return burnRate(e, t, s.cfg.AvailabilityTarget)
}

// ExportTo registers a scrape hook on reg that refreshes
// db2www_slo_burn_rate{macro,slo,window} float gauges and the
// db2www_slo_requests{macro,window} gauges beside them from the live
// windows — both are window functions, so they are computed at scrape
// time rather than stored.
func (s *SLO) ExportTo(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	const help = "error-budget burn rate (1.0 = on budget), by macro, objective, and window"
	const reqHelp = "requests inside the SLO window, by macro and window"
	reg.OnScrape(func() {
		for _, br := range s.Snapshot() {
			reg.Gauge("db2www_slo_requests", reqHelp, "macro", br.Macro, "window", "5m").Set(br.Requests5m)
			reg.Gauge("db2www_slo_requests", reqHelp, "macro", br.Macro, "window", "1h").Set(br.Requests1h)
			reg.FloatGauge("db2www_slo_burn_rate", help,
				"macro", br.Macro, "slo", "availability", "window", "5m").Set(br.Avail5m)
			reg.FloatGauge("db2www_slo_burn_rate", help,
				"macro", br.Macro, "slo", "availability", "window", "1h").Set(br.Avail1h)
			reg.FloatGauge("db2www_slo_burn_rate", help,
				"macro", br.Macro, "slo", "latency", "window", "5m").Set(br.Lat5m)
			reg.FloatGauge("db2www_slo_burn_rate", help,
				"macro", br.Macro, "slo", "latency", "window", "1h").Set(br.Lat1h)
		}
	})
}
