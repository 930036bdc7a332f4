// Package history self-scrapes the process's metrics registry on a fixed
// interval into bounded per-series rings, and after every scrape evaluates
// alert rules over them: a series' value, or a counter's per-second rate,
// against a threshold held for a duration.
//
// gatewayd keeps no time series: keeping history is the job of whatever
// scrapes /metrics, and its /readyz reads the flight recorder's 5xx window.
// The package survives only for the benchmark module's in-process stack,
// which still starts a store with DefaultRules; both go when that stack is
// built from gateway.NewServer.
package history

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"db2www/internal/obs"
)

// The store's geometry: retention / interval samples a series, 180. The
// in-package tests change them.
var (
	interval  = 5 * time.Second
	retention = 15 * time.Minute
)

// Series5xx is the store's one synthetic series: db2www_http_requests_total
// summed over the 5xx codes, so that a rule can watch all 5xx without label
// math.
const Series5xx = "http_5xx_total"

// Config configures a Store.
type Config struct {
	// Registry is scraped and receives the store's own db2www_history_*
	// metrics. Nil means obs.Default.
	Registry *obs.Registry
	// Rules are the alert rules evaluated after every scrape.
	Rules []Rule
}

// sample is one scrape of one series.
type sample struct {
	t time.Time
	v float64 // counter/gauge value; histogram observation count
}

// seriesState is one series' bounded ring, oldest overwritten first. It
// grows with the samples it holds up to max.
type seriesState struct {
	buf  []sample
	max  int
	next int // the oldest sample, once buf holds max
}

func (s *seriesState) add(smp sample) {
	if len(s.buf) < s.max {
		s.buf = append(s.buf, smp)
		return
	}
	s.buf[s.next] = smp
	s.next = (s.next + 1) % s.max
}

// snapshot returns the ring oldest-first.
func (s *seriesState) snapshot() []sample {
	out := make([]sample, 0, len(s.buf))
	for i := range s.buf {
		out = append(out, s.buf[(s.next+i)%len(s.buf)])
	}
	return out
}

// Store scrapes a registry on a fixed interval into per-series rings.
// Start launches the scrape loop; tests drive Scrape directly with their
// own clock instead of sleeping.
type Store struct {
	reg *obs.Registry
	cap int // samples per ring

	mu     sync.Mutex
	now    func() time.Time
	series map[string]*seriesState

	alerts *alertEngine

	stopOnce sync.Once
	started  atomic.Bool
	stop     chan struct{}
	done     chan struct{}

	mScrapes  *obs.Counter
	mSamples  *obs.Counter
	mSeries   *obs.Gauge
	mFiringW  *obs.Gauge
	mFiringC  *obs.Gauge
	mTransits *obs.Counter
}

// New builds a Store (not yet scraping — call Start, or Scrape manually).
func New(cfg Config) *Store {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	s := &Store{
		reg:    reg,
		cap:    max(int(retention/interval), 2),
		now:    time.Now,
		series: map[string]*seriesState{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		alerts: newAlertEngine(cfg.Rules),
	}
	s.mScrapes = reg.Counter("db2www_history_scrapes_total",
		"registry scrapes taken by the history store")
	s.mSamples = reg.Counter("db2www_history_samples_total",
		"samples appended to history series rings")
	s.mSeries = reg.Gauge("db2www_history_series",
		"distinct series the history store tracks")
	s.mFiringW = reg.Gauge("db2www_history_alerts_firing",
		"alert rules currently firing, by severity", "severity", SeverityWarning)
	s.mFiringC = reg.Gauge("db2www_history_alerts_firing",
		"alert rules currently firing, by severity", "severity", SeverityCritical)
	s.mTransits = reg.Counter("db2www_history_alert_transitions_total",
		"alert rule transitions into the firing state")
	return s
}

// Start launches the background scrape loop. Close stops it.
func (s *Store) Start() {
	s.started.Store(true)
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Scrape()
			case <-s.stop:
				return
			}
		}
	}()
}

// Close stops the scrape loop started by Start and waits for it to
// exit. Safe to call more than once, and on a store that was never
// started (Scrape keeps working).
func (s *Store) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.started.Load() {
		<-s.done
	}
}

// Scrape takes one scrape of the registry at the store clock's current
// time, appends every series, and evaluates the alert rules. The scrape
// path reuses the registry's OnScrape hooks (FullSnapshot runs them), so
// lazily-refreshed gauges are fresh in every sample.
func (s *Store) Scrape() {
	samples := s.reg.FullSnapshot()

	s.mu.Lock()
	t := s.now()
	record := func(key string, v float64) {
		st, ok := s.series[key]
		if !ok {
			st = &seriesState{max: s.cap, buf: make([]sample, 0, min(s.cap, 180))}
			s.series[key] = st
		}
		st.add(sample{t: t, v: v})
	}
	var req5xx float64
	for _, smp := range samples {
		record(smp.Name+smp.Labels, smp.Value)
		if smp.Name == "db2www_http_requests_total" {
			if code := labelValue(smp.Labels, "code"); len(code) == 3 && code[0] == '5' {
				req5xx += smp.Value
			}
		}
	}
	record(Series5xx, req5xx)
	nSeries := len(s.series)
	s.mu.Unlock()

	s.mScrapes.Inc()
	s.mSamples.Add(int64(len(samples) + 1))
	s.mSeries.Set(int64(nSeries))

	fired := s.alerts.eval(s, t)
	warning, critical := s.alerts.firingCounts()
	s.mFiringW.Set(int64(warning))
	s.mFiringC.Set(int64(critical))
	s.mTransits.Add(int64(fired))
}

// labelValue extracts one label's value from a rendered `{k="v",...}`
// set. Good enough for the store's own synthetic series — the label
// values it reads (status codes) never contain escapes.
func labelValue(rendered, key string) string {
	i := strings.Index(rendered, key+`="`)
	if i < 0 {
		return ""
	}
	rest := rendered[i+len(key)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// window returns the series' samples with t >= now-window, oldest first.
// window <= 0 means everything retained.
func (s *Store) window(key string, window time.Duration) []sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.series[key]
	if !ok {
		return nil
	}
	snap := st.snapshot()
	if window > 0 {
		cutoff := s.now().Add(-window)
		i := 0
		for i < len(snap) && snap[i].t.Before(cutoff) {
			i++
		}
		snap = snap[i:]
	}
	return snap
}

// rates returns per-second rates between consecutive samples in the
// window — the derivative of a cumulative counter. A value decrease
// (process restart, gauge misuse) yields no rate.
func (s *Store) rates(key string, window time.Duration) []float64 {
	snap := s.window(key, window)
	out := make([]float64, 0, len(snap))
	for i := 1; i < len(snap); i++ {
		dt := snap[i].t.Sub(snap[i-1].t).Seconds()
		dv := snap[i].v - snap[i-1].v
		if dt <= 0 || dv < 0 {
			continue
		}
		out = append(out, dv/dt)
	}
	return out
}

// last returns the series' newest sample value.
func (s *Store) last(key string) (v float64, ok bool) {
	snap := s.window(key, 0)
	if len(snap) == 0 {
		return 0, false
	}
	return snap[len(snap)-1].v, true
}
