// Package history is the embedded time-series layer on top of the obs
// registry: it self-scrapes the process-wide metrics on a fixed interval
// into bounded per-series rings of (timestamp, value) samples, derives
// per-second rates from cumulative counters and windowed quantiles from
// the fixed-bucket histograms, and serves the result as a JSON API
// (/debug/history), a zero-dependency HTML dashboard (/debug/dash), and
// an alert-rule engine whose firings gate /readyz and trigger the flight
// recorder's anomaly pprof capture.
//
// Every instantaneous signal in internal/obs answers "what is true
// now"; this package answers "what happened over the last N minutes" —
// the evidence soak runs, SLO reviews, and the planned replica tier need
// without any external scraper. Like the rest of the repo it is plain
// standard library and safe for concurrent use.
package history

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"db2www/internal/obs"
)

// Defaults for the store geometry. Retention / Interval bounds each
// series ring: at the defaults, 180 samples per series.
const (
	DefaultInterval  = 5 * time.Second
	DefaultRetention = 15 * time.Minute
)

// Synthetic series the store derives at scrape time from labelled
// families, so single-series alert rules and dashboard panels can watch
// totals without label math.
const (
	// SeriesRequests is the sum of db2www_http_requests_total across all
	// status codes.
	SeriesRequests = "http_requests_total"
	// Series5xx is the same sum restricted to 5xx codes.
	Series5xx = "http_5xx_total"
	// SeriesLatency is the request-latency histogram (an alias for the
	// gateway's db2www_http_request_seconds).
	SeriesLatency = "db2www_http_request_seconds"
)

// Config configures a Store.
type Config struct {
	// Registry is scraped and receives the store's own db2www_history_*
	// metrics. Nil means obs.Default.
	Registry *obs.Registry
	// Interval is the scrape period. 0 means DefaultInterval.
	Interval time.Duration
	// Retention bounds how far back samples are kept. 0 means
	// DefaultRetention.
	Retention time.Duration
	// Rules are the alert rules evaluated after every scrape.
	Rules []Rule
	// OnAlert, when non-nil, is called (outside store locks) each time a
	// rule transitions into the firing state.
	OnAlert func(rule Rule, value float64)
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = obs.Default
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Retention <= 0 {
		c.Retention = DefaultRetention
	}
	return c
}

// Point is one (timestamp, value) sample of a raw or derived series.
type Point struct {
	T time.Time
	V float64
}

// sample is one scrape of one series. Histogram samples carry the
// cumulative per-bucket counts so quantiles come from deltas.
type sample struct {
	t       time.Time
	v       float64 // counter/gauge value; histogram observation count
	sum     float64
	buckets []int64
}

// seriesState is one series' bounded ring, oldest overwritten first. A
// ring of up to the default geometry's size is allocated whole; one that a
// finer interval makes larger grows with the samples it holds, so that a
// 100 ms store does not start with 9 000 empty samples a series.
type seriesState struct {
	key    string // name{labels}
	kind   string
	bounds []float64
	buf    []sample
	max    int
	next   int // the oldest sample, once buf holds max
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

// SeriesInfo describes one stored series for the list API.
type SeriesInfo struct {
	Key     string    `json:"series"`
	Kind    string    `json:"kind"`
	Samples int       `json:"samples"`
	First   time.Time `json:"first"`
	Last    time.Time `json:"last"`
	LastV   float64   `json:"last_value"`
}

// Store scrapes a registry on a fixed interval into per-series rings.
// Start launches the scrape loop; tests drive Scrape directly with an
// injected clock instead of sleeping.
type Store struct {
	cfg Config
	cap int // samples per ring = Retention / Interval

	mu      sync.Mutex
	now     func() time.Time
	series  map[string]*seriesState
	order   []string
	scrapes int64

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
	cfg = cfg.withDefaults()
	capSamples := int(cfg.Retention / cfg.Interval)
	if capSamples < 2 {
		capSamples = 2
	}
	s := &Store{
		cfg:    cfg,
		cap:    capSamples,
		now:    time.Now,
		series: map[string]*seriesState{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.alerts = newAlertEngine(cfg.Rules)
	reg := cfg.Registry
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

// SetClock overrides the store clock (tests). Nil restores time.Now.
func (s *Store) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	s.mu.Lock()
	s.now = now
	s.mu.Unlock()
}

// Interval returns the configured scrape period.
func (s *Store) Interval() time.Duration { return s.cfg.Interval }

// Retention returns the configured retention span.
func (s *Store) Retention() time.Duration { return s.cfg.Retention }

// Start launches the background scrape loop. Close stops it.
func (s *Store) Start() {
	s.started.Store(true)
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.Interval)
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
// lazily-refreshed gauges — runtime stats, SLO burn rates — are fresh in
// every sample.
func (s *Store) Scrape() {
	samples := s.cfg.Registry.FullSnapshot()

	s.mu.Lock()
	t := s.now()
	var appended int64
	record := func(key, kind string, bounds []float64, smp sample) {
		st, ok := s.series[key]
		if !ok {
			st = &seriesState{key: key, kind: kind, bounds: bounds, max: s.cap,
				buf: make([]sample, 0, min(s.cap, int(DefaultRetention/DefaultInterval)))}
			s.series[key] = st
			s.order = append(s.order, key)
		}
		st.add(smp)
		appended++
	}
	var reqTotal, req5xx float64
	for _, smp := range samples {
		key := smp.Name + smp.Labels
		record(key, smp.Kind, smp.Bounds,
			sample{t: t, v: smp.Value, sum: smp.Sum, buckets: smp.Buckets})
		if smp.Name == "db2www_http_requests_total" {
			reqTotal += smp.Value
			if code := labelValue(smp.Labels, "code"); len(code) == 3 && code[0] == '5' {
				req5xx += smp.Value
			}
		}
	}
	// Synthetic totals: labelled request counters summed into single
	// series so rules and panels can watch "all traffic" and "all 5xx".
	record(SeriesRequests, "counter", nil, sample{t: t, v: reqTotal})
	record(Series5xx, "counter", nil, sample{t: t, v: req5xx})
	s.scrapes++
	nSeries := len(s.series)
	s.mu.Unlock()

	s.mScrapes.Inc()
	s.mSamples.Add(appended)
	s.mSeries.Set(int64(nSeries))

	fired := s.alerts.eval(s, t)
	warning, critical := s.alerts.firingCounts()
	s.mFiringW.Set(int64(warning))
	s.mFiringC.Set(int64(critical))
	for _, f := range fired {
		s.mTransits.Inc()
		if s.cfg.OnAlert != nil {
			s.cfg.OnAlert(f.rule, f.value)
		}
	}
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

// Scrapes returns how many scrapes the store has taken.
func (s *Store) Scrapes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scrapes
}

// SeriesList describes every stored series, in first-seen order.
func (s *Store) SeriesList() []SeriesInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesInfo, 0, len(s.order))
	for _, key := range s.order {
		st := s.series[key]
		snap := st.snapshot()
		info := SeriesInfo{Key: key, Kind: st.kind, Samples: len(snap)}
		if len(snap) > 0 {
			info.First = snap[0].t
			info.Last = snap[len(snap)-1].t
			info.LastV = snap[len(snap)-1].v
		}
		out = append(out, info)
	}
	return out
}

// Keys returns the stored series keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, key := range s.order {
		if strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// window returns the series' samples with t >= now-window, oldest first.
// window <= 0 means everything retained.
func (s *Store) window(key string, window time.Duration) ([]sample, *seriesState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.series[key]
	if !ok {
		return nil, nil
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
	return snap, st
}

// Has reports whether the store tracks the series.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.series[key]
	return ok
}

// Samples returns the raw sample values in the window (histogram series
// yield their observation counts).
func (s *Store) Samples(key string, window time.Duration) []Point {
	snap, _ := s.window(key, window)
	out := make([]Point, 0, len(snap))
	for _, smp := range snap {
		out = append(out, Point{T: smp.t, V: smp.v})
	}
	return out
}

// Rate returns per-second rates between consecutive samples in the
// window — the derivative of a cumulative counter (or of a histogram's
// observation count). Each point carries the later sample's timestamp.
// A value decrease (process restart, gauge misuse) yields no point.
func (s *Store) Rate(key string, window time.Duration) []Point {
	snap, _ := s.window(key, window)
	out := make([]Point, 0, len(snap))
	for i := 1; i < len(snap); i++ {
		dt := snap[i].t.Sub(snap[i-1].t).Seconds()
		dv := snap[i].v - snap[i-1].v
		if dt <= 0 || dv < 0 {
			continue
		}
		out = append(out, Point{T: snap[i].t, V: dv / dt})
	}
	return out
}

// Deriv returns the window's overall rate of change for a gauge-like
// series: (last - first) / elapsed, per second. ok is false when the
// window holds fewer than two samples.
func (s *Store) Deriv(key string, window time.Duration) (v float64, ok bool) {
	snap, _ := s.window(key, window)
	if len(snap) < 2 {
		return 0, false
	}
	first, last := snap[0], snap[len(snap)-1]
	dt := last.t.Sub(first.t).Seconds()
	if dt <= 0 {
		return 0, false
	}
	return (last.v - first.v) / dt, true
}

// Last returns the series' newest sample value.
func (s *Store) Last(key string) (v float64, ok bool) {
	snap, _ := s.window(key, 0)
	if len(snap) == 0 {
		return 0, false
	}
	return snap[len(snap)-1].v, true
}

// QuantileSeries returns the q-quantile of a histogram series per scrape
// interval in the window: each point is the quantile of the observations
// that landed between two consecutive scrapes (intervals with no new
// observations yield no point). q is in (0, 1).
func (s *Store) QuantileSeries(key string, q float64, window time.Duration) []Point {
	snap, st := s.window(key, window)
	if st == nil || len(st.bounds) == 0 {
		return nil
	}
	out := make([]Point, 0, len(snap))
	delta := make([]int64, len(st.bounds)+1)
	for i := 1; i < len(snap); i++ {
		prev, cur := snap[i-1], snap[i]
		if len(prev.buckets) != len(delta) || len(cur.buckets) != len(delta) {
			continue
		}
		var total int64
		for b := range delta {
			delta[b] = cur.buckets[b] - prev.buckets[b]
			total += delta[b]
		}
		if total <= 0 {
			continue
		}
		out = append(out, Point{T: cur.t, V: QuantileFromBuckets(st.bounds, delta, q)})
	}
	return out
}

// WindowQuantile returns the q-quantile of everything a histogram series
// observed across the window: the bucket delta between the newest and
// oldest in-window samples. ok is false without two samples or any
// observations between them.
func (s *Store) WindowQuantile(key string, q float64, window time.Duration) (v float64, ok bool) {
	snap, st := s.window(key, window)
	if st == nil || len(st.bounds) == 0 || len(snap) < 2 {
		return 0, false
	}
	first, last := snap[0], snap[len(snap)-1]
	if len(first.buckets) != len(st.bounds)+1 || len(last.buckets) != len(st.bounds)+1 {
		return 0, false
	}
	delta := make([]int64, len(st.bounds)+1)
	var total int64
	for b := range delta {
		delta[b] = last.buckets[b] - first.buckets[b]
		total += delta[b]
	}
	if total <= 0 {
		return 0, false
	}
	return QuantileFromBuckets(st.bounds, delta, q), true
}

// MaxAcross returns, per scrape instant in the window, the maximum value
// across every series whose key has the given prefix — how the dashboard
// collapses the per-macro SLO burn gauges into one worst-case line.
func (s *Store) MaxAcross(prefix string, window time.Duration) []Point {
	maxAt := map[int64]float64{}
	for _, key := range s.Keys(prefix) {
		for _, p := range s.Samples(key, window) {
			ts := p.T.UnixNano()
			if v, ok := maxAt[ts]; !ok || p.V > v {
				maxAt[ts] = p.V
			}
		}
	}
	out := make([]Point, 0, len(maxAt))
	for ts, v := range maxAt {
		out = append(out, Point{T: time.Unix(0, ts), V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T.Before(out[j].T) })
	return out
}

// QuantileFromBuckets computes the q-quantile (q in (0,1)) from fixed
// bucket bounds and per-bucket counts (len(bounds)+1, last = +Inf),
// interpolating linearly within the containing bucket. Observations in
// the +Inf bucket report the last finite bound — the histogram cannot
// say more. Resolution is one bucket, which is the tolerance the A12
// property test pins.
func QuantileFromBuckets(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := float64(rank-cum) / float64(c)
			return lo + (bounds[i]-lo)*frac
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}
