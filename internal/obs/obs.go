// Package obs is the reproduction's observability layer: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms) exposed in Prometheus text format, per-request traces
// threaded through context.Context, and a ring buffer of recent traces
// for /server-status. The paper's DB2WWW was a black box between
// QUERY_STRING and the rendered report; this package is the instrument
// panel the 1996 operator never had, and the measurement substrate every
// performance PR builds on.
//
// Everything is safe for concurrent use. Instrumentation can be turned
// off process-wide with SetEnabled(false) — the A7 ablation measures the
// overhead of leaving it on (the default).
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled gates the timing call sites. Metric objects still accept
// updates when disabled (atomic adds are near-free); what SetEnabled
// saves is clock reads and trace allocation on the request path.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether instrumentation call sites should take
// timestamps and mint traces.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns process-wide instrumentation on or off.
func SetEnabled(on bool) { enabled.Store(on) }

// LatencyBuckets is the default histogram bucket layout for request and
// statement latencies, in seconds: 100µs up to 10s.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Default is the process-wide registry; the /metrics endpoint serves it
// and every instrumented package records into it.
var Default = NewRegistry()

// metricKind discriminates the three metric families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindFloatGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindFloatGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a float-valued gauge (burn rates, ratios). Stored as
// float64 bits in an atomic word.
type FloatGauge struct{ v atomic.Uint64 }

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Histogram is a fixed-bucket latency/size distribution. Buckets are
// upper bounds in ascending order; observations land in the first bucket
// whose bound is >= the value, with an implicit +Inf bucket at the end.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last = +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// series is one labelled instance within a family.
type series struct {
	labels string // rendered `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	fg     *FloatGauge
	h      *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64
	series map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Use Default unless a test needs isolation.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	hookMu sync.Mutex
	hooks  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelString renders alternating key/value pairs as a Prometheus label
// set. Values are escaped; keys are trusted (they come from call sites).
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(labels[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string {
	// The common case — no character needing escape — returns v unchanged
	// with no allocation; this sits on every registry lookup.
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

// get returns the series for (name, labels), creating family and series
// as needed. Kind mismatches on the same name are programmer errors.
func (r *Registry) get(name, help string, kind metricKind, bounds []float64, labels []string) *series {
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds,
			series: map[string]*series{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	s, ok := f.series[ls]
	if !ok {
		s = &series{labels: ls}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindFloatGauge:
			s.fg = &FloatGauge{}
		case kindHistogram:
			s.h = &Histogram{bounds: f.bounds,
				counts: make([]atomic.Int64, len(f.bounds)+1)}
		}
		f.series[ls] = s
	}
	return s
}

// Counter returns (creating if absent) the counter for name and the
// given alternating label key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.get(name, help, kindCounter, nil, labels).c
}

// Gauge returns (creating if absent) the gauge for name and labels.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.get(name, help, kindGauge, nil, labels).g
}

// FloatGauge returns (creating if absent) the float gauge for name and
// labels. Rendered as TYPE gauge; a name is either integer- or
// float-gauged, never both.
func (r *Registry) FloatGauge(name, help string, labels ...string) *FloatGauge {
	return r.get(name, help, kindFloatGauge, nil, labels).fg
}

// OnScrape registers a hook run before every render (WritePrometheus,
// Snapshot, ServeHTTP). Hooks refresh lazily-computed gauges — runtime
// stats, burn rates — so their cost is paid per scrape, not per
// request. Hooks run outside the registry lock and may create or set
// any metric.
func (r *Registry) OnScrape(fn func()) {
	if fn == nil {
		return
	}
	r.hookMu.Lock()
	r.hooks = append(r.hooks, fn)
	r.hookMu.Unlock()
}

// runScrapeHooks runs registered hooks serially; the hookMu is held
// across the calls so concurrent scrapes don't interleave refreshes.
func (r *Registry) runScrapeHooks() {
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	for _, fn := range r.hooks {
		fn()
	}
}

// Vec is a metric family by one label, as Counter or Histogram would
// register it series by series. A series it has met is found again by the
// label's value alone, with no label text built and no registry lock
// taken: what a request does to count itself under its status or its
// statement's section.
type Vec struct {
	r                 *Registry
	name, help, label string
	kind              metricKind
	bounds            []float64
	seen              atomic.Pointer[[]vecSeries] // the first maxVecSeen values met
}

type vecSeries struct {
	value string
	s     *series
}

// maxVecSeen bounds the values a Vec remembers; further ones are looked
// up in the registry each time.
const maxVecSeen = 64

// CounterVec returns the counter family name by label.
func (r *Registry) CounterVec(name, help, label string) *Vec {
	return &Vec{r: r, name: name, help: help, label: label, kind: kindCounter}
}

// HistogramVec returns the histogram family name by label, with buckets
// as Histogram takes them.
func (r *Registry) HistogramVec(name, help string, buckets []float64, label string) *Vec {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return &Vec{r: r, name: name, help: help, label: label, kind: kindHistogram, bounds: buckets}
}

// Counter returns the counter of the family's series for value.
func (v *Vec) Counter(value string) *Counter { return v.series(value).c }

// Histogram returns the histogram of the family's series for value.
func (v *Vec) Histogram(value string) *Histogram { return v.series(value).h }

func (v *Vec) series(value string) *series {
	cur := v.seen.Load()
	if cur != nil {
		for _, e := range *cur {
			if e.value == value {
				return e.s
			}
		}
	}
	s := v.r.get(v.name, v.help, v.kind, v.bounds, []string{v.label, value})
	if cur == nil || len(*cur) < maxVecSeen {
		var next []vecSeries
		if cur != nil {
			next = append(next, *cur...)
		}
		next = append(next, vecSeries{value: value, s: s})
		v.seen.CompareAndSwap(cur, &next)
	}
	return s
}

// Histogram returns (creating if absent) the histogram for name and
// labels. buckets applies only on first creation of the family; nil
// means LatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return r.get(name, help, kindHistogram, buckets, labels).h
}

// WritePrometheus renders every family in the text exposition format
// (the format scrapers and promtool accept), families and series in
// sorted order so output is stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runScrapeHooks()
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ser := make([]*series, 0, len(keys))
		for _, k := range keys {
			ser = append(ser, f.series[k])
		}
		r.mu.Unlock()
		for _, s := range ser {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.g.Value())
		return err
	case kindFloatGauge:
		_, err := fmt.Fprintf(w, "%s%s %g\n", f.name, s.labels, s.fg.Value())
		return err
	}
	// Histogram: cumulative buckets, then sum and count. The le label is
	// appended to any existing labels.
	var cum int64
	for i, bound := range f.bounds {
		cum += s.h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, mergeLabels(s.labels, "le", formatBound(bound)), cum); err != nil {
			return err
		}
	}
	cum += s.h.counts[len(f.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		f.name, mergeLabels(s.labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", f.name, s.labels, s.h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, s.h.Count())
	return err
}

// mergeLabels splices an extra key/value into an already-rendered label
// set.
func mergeLabels(rendered, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

// Snapshot returns every sample as a flat name{labels} -> value map:
// counters and gauges directly, histograms as their _sum and _count
// (buckets are omitted). Tests read it to see what a request did to the
// metrics.
func (r *Registry) Snapshot() map[string]float64 {
	r.runScrapeHooks()
	out := map[string]float64{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				out[f.name+s.labels] = float64(s.c.Value())
			case kindGauge:
				out[f.name+s.labels] = float64(s.g.Value())
			case kindFloatGauge:
				out[f.name+s.labels] = s.fg.Value()
			case kindHistogram:
				out[f.name+"_sum"+s.labels] = s.h.Sum()
				out[f.name+"_count"+s.labels] = float64(s.h.Count())
			}
		}
	}
	return out
}

// Sample is one series at a scrape instant, with its family's name and
// kind kept apart — what Snapshot flattens away.
type Sample struct {
	// Name is the metric family name; Labels is the rendered `{k="v"}`
	// label set (or ""), so Name+Labels is the series identity.
	Name   string
	Labels string
	// Kind is "counter", "gauge", or "histogram".
	Kind string
	// Value is the counter/gauge value; for histograms it is the
	// observation count.
	Value float64
	// Sum is histogram-only: the sum of observed values.
	Sum float64
}

// FullSnapshot returns every series, sorted by name then label set.
// Scrape hooks run first, as for Snapshot.
func (r *Registry) FullSnapshot() []Sample {
	r.runScrapeHooks()
	r.mu.Lock()
	out := make([]Sample, 0, len(r.families))
	for _, f := range r.families {
		for _, s := range f.series {
			smp := Sample{Name: f.name, Labels: s.labels, Kind: f.kind.String()}
			switch f.kind {
			case kindCounter:
				smp.Value = float64(s.c.Value())
			case kindGauge:
				smp.Value = float64(s.g.Value())
			case kindFloatGauge:
				smp.Value = s.fg.Value()
			case kindHistogram:
				smp.Value = float64(s.h.Count())
				smp.Sum = s.h.Sum()
			}
			out = append(out, smp)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// ServeHTTP serves the registry in Prometheus text format — mount this
// at /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}
