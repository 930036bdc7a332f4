package history

import (
	"fmt"
	"html"
	"math"
	"net/http"
	"strings"
	"time"
)

// Dashboard panel geometry. Sparklines are server-rendered SVG — the
// page needs no script, stylesheet, or other external asset, and works
// in anything that renders HTML, which is the whole point of a
// dashboard embedded in the gateway it watches.
const (
	sparkW = 280
	sparkH = 56
)

// dashLine is one polyline in a panel.
type dashLine struct {
	label string
	color string
	pts   []Point
}

// dashPanel is one titled sparkline block.
type dashPanel struct {
	title string
	unit  string
	lines []dashLine
}

// dashWindow is how far back the dashboard looks.
const dashWindow = 15 * time.Minute

// panels assembles the dashboard's panel set from the store's derived
// series: request rate, latency quantiles, 5xx rate, qcache hit ratio,
// MVCC conflicts, SLO burn, and plan-cache hits.
func (s *Store) panels() []dashPanel {
	w := dashWindow
	msScale := func(pts []Point) []Point {
		out := make([]Point, len(pts))
		for i, p := range pts {
			out[i] = Point{T: p.T, V: p.V * 1000}
		}
		return out
	}
	return []dashPanel{
		{title: "Request rate", unit: "req/s", lines: []dashLine{
			{label: "all", color: "#2563eb", pts: s.Rate(SeriesRequests, w)},
		}},
		{title: "Request latency", unit: "ms", lines: []dashLine{
			{label: "p50", color: "#16a34a", pts: msScale(s.QuantileSeries(SeriesLatency, 0.5, w))},
			{label: "p99", color: "#dc2626", pts: msScale(s.QuantileSeries(SeriesLatency, 0.99, w))},
		}},
		{title: "5xx rate", unit: "err/s", lines: []dashLine{
			{label: "5xx", color: "#dc2626", pts: s.Rate(Series5xx, w)},
		}},
		// Of what the cache tried to serve: an execution admission refused
		// (db2www_qcache_refused_total) is in neither rate.
		{title: "Query cache hit ratio", unit: "", lines: []dashLine{
			{label: "hit ratio", color: "#7c3aed", pts: ratioSeries(
				s.Rate("db2www_qcache_hits_total", w),
				s.Rate("db2www_qcache_misses_total", w))},
		}},
		{title: "MVCC conflicts", unit: "conflicts/s", lines: []dashLine{
			{label: "conflicts", color: "#ea580c", pts: s.Rate(`db2www_sqldb_txn_total{outcome="conflict"}`, w)},
		}},
		{title: "SLO burn (worst macro)", unit: "x budget", lines: []dashLine{
			{label: "max burn", color: "#dc2626", pts: s.MaxAcross("db2www_slo_burn_rate{", w)},
		}},
		{title: "Plan cache hits", unit: "hits/s", lines: []dashLine{
			{label: "hits", color: "#0891b2", pts: s.Rate("db2www_sqldb_plan_cache_hits", w)},
		}},
	}
}

// ratioSeries computes a/(a+b) pointwise for two rate series sharing
// scrape timestamps; instants where both are zero yield no point.
func ratioSeries(a, b []Point) []Point {
	bAt := map[int64]float64{}
	for _, p := range b {
		bAt[p.T.UnixNano()] = p.V
	}
	out := make([]Point, 0, len(a))
	for _, p := range a {
		denom := p.V + bAt[p.T.UnixNano()]
		if denom <= 0 {
			continue
		}
		out = append(out, Point{T: p.T, V: p.V / denom})
	}
	return out
}

// Dashboard serves the self-contained HTML dashboard (/debug/dash).
func (s *Store) Dashboard() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		var sb strings.Builder
		refresh := int(s.cfg.Interval.Seconds())
		if refresh < 1 {
			refresh = 1
		}
		fmt.Fprintf(&sb, `<!DOCTYPE html>
<html><head><title>db2www history dashboard</title>
<meta http-equiv="refresh" content="%d">
<style>
body{font-family:sans-serif;margin:16px;background:#fafafa;color:#111}
h1{font-size:18px} h2{font-size:13px;margin:0 0 4px 0;font-weight:600}
.grid{display:flex;flex-wrap:wrap;gap:12px}
.panel{background:#fff;border:1px solid #ddd;border-radius:6px;padding:10px}
.val{font-size:12px;color:#555;margin-top:2px}
table{border-collapse:collapse;font-size:12px;margin-top:12px}
td,th{border:1px solid #ddd;padding:3px 8px;text-align:left}
.firing{color:#dc2626;font-weight:600}.pending{color:#ea580c}.ok{color:#16a34a}
.meta{font-size:12px;color:#666;margin-bottom:10px}
</style></head><body>
<h1>gatewayd history</h1>
<p class="meta">window %s, scrape every %s, %d scrapes taken —
<a href="/debug/history">JSON API</a> · <a href="/server-status">server status</a> ·
<a href="/metrics">metrics</a></p>
<div class="grid">
`, refresh, dashWindow, s.cfg.Interval, s.Scrapes())
		for _, p := range s.panels() {
			renderPanel(&sb, p)
		}
		sb.WriteString("</div>\n")
		renderAlerts(&sb, s.Alerts())
		sb.WriteString("</body></html>\n")
		_, _ = w.Write([]byte(sb.String()))
	})
}

// renderPanel writes one panel: title, sparkline SVG, latest values.
func renderPanel(sb *strings.Builder, p dashPanel) {
	fmt.Fprintf(sb, `<div class="panel"><h2>%s</h2>`, html.EscapeString(p.title))
	lo, hi := math.Inf(1), math.Inf(-1)
	var t0, t1 time.Time
	for _, ln := range p.lines {
		for _, pt := range ln.pts {
			lo, hi = math.Min(lo, pt.V), math.Max(hi, pt.V)
			if t0.IsZero() || pt.T.Before(t0) {
				t0 = pt.T
			}
			if pt.T.After(t1) {
				t1 = pt.T
			}
		}
	}
	if math.IsInf(lo, 1) {
		fmt.Fprintf(sb, `<div class="val">(no data yet)</div></div>`)
		return
	}
	if hi == lo {
		hi = lo + 1 // flat line renders mid-panel
	}
	fmt.Fprintf(sb, `<svg width="%d" height="%d" viewBox="0 0 %d %d">`,
		sparkW, sparkH, sparkW, sparkH)
	span := t1.Sub(t0).Seconds()
	for _, ln := range p.lines {
		if len(ln.pts) == 0 {
			continue
		}
		var pb strings.Builder
		for _, pt := range ln.pts {
			x := 0.0
			if span > 0 {
				x = pt.T.Sub(t0).Seconds() / span * float64(sparkW-4)
			}
			y := float64(sparkH-4) * (1 - (pt.V-lo)/(hi-lo))
			fmt.Fprintf(&pb, "%.1f,%.1f ", x+2, y+2)
		}
		fmt.Fprintf(sb, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>`,
			ln.color, strings.TrimSpace(pb.String()))
	}
	sb.WriteString("</svg>")
	var vals []string
	for _, ln := range p.lines {
		if len(ln.pts) == 0 {
			continue
		}
		vals = append(vals, fmt.Sprintf(`<span style="color:%s">%s %s</span>`,
			ln.color, html.EscapeString(ln.label),
			formatValue(ln.pts[len(ln.pts)-1].V, p.unit)))
	}
	fmt.Fprintf(sb, `<div class="val">%s &nbsp; min %s · max %s</div></div>`,
		strings.Join(vals, " · "), formatValue(lo, p.unit), formatValue(hi, p.unit))
}

func formatValue(v float64, unit string) string {
	s := fmt.Sprintf("%.3g", v)
	if unit != "" {
		s += " " + unit
	}
	return s
}

// renderAlerts writes the alert-rule table.
func renderAlerts(sb *strings.Builder, alerts []AlertStatus) {
	sb.WriteString("<h2>Alert rules</h2>\n")
	if len(alerts) == 0 {
		sb.WriteString(`<p class="meta">(no rules configured)</p>`)
		return
	}
	sb.WriteString("<table><tr><th>rule</th><th>state</th><th>value</th><th>severity</th></tr>\n")
	for _, a := range alerts {
		val := "–"
		if a.HasValue {
			val = fmt.Sprintf("%.3g", a.Value)
		}
		state := a.State
		if !a.Since.IsZero() {
			state += " since " + a.Since.UTC().Format("15:04:05")
		}
		fmt.Fprintf(sb, `<tr><td>%s</td><td class="%s">%s</td><td>%s</td><td>%s</td></tr>`+"\n",
			html.EscapeString(a.Rule.String()), a.State, html.EscapeString(state),
			val, html.EscapeString(a.Rule.Severity))
	}
	sb.WriteString("</table>\n")
}
