package experiments

import (
	"fmt"
	"time"

	"db2www/internal/gateway"
	"db2www/internal/obs/history"
	"db2www/internal/webclient"
)

// HistoryAblation is A12's result: the report workload
// without and with a scrape of the history store (overhead phase), then a
// sustained webclient soak with the store scraping and the default alert
// rules armed (soak phase).
type HistoryAblation struct {
	Rows          int
	Pairs         int
	OffMeanMicros float64
	OnMeanMicros  float64
	OverheadPct   float64
	// BlockRequests is how many requests shared the one scrape of the
	// median pair's on block (what blockTime of traffic held).
	BlockRequests int

	SoakSeconds     float64
	SoakRequests    int64
	SoakErrors      int64
	Soak5xx         int64
	Scrapes         int64
	CriticalAlerts  int
	WindowsNonEmpty int
}

// ScrapeMicros is the absolute bill behind OverheadPct: what the one
// scrape of the median block pair cost (on − off per block), which does
// not depend on how fast the requests beside it are.
func (r *HistoryAblation) ScrapeMicros() float64 {
	return (r.OnMeanMicros - r.OffMeanMicros) * float64(r.BlockRequests)
}

// A12 acceptance bounds: one self-scrape per blockTime of traffic —
// tighter than the 100ms soak interval and ~140× tighter than the 5s
// production default, so the measured overhead upper-bounds what
// gatewayd pays — must cost less than maxHistoryOverheadPct of the
// Appendix A request, a healthy soak must fire zero critical alerts, and
// the store must deliver at least minSoakWindows non-empty windows for
// both the request-rate and p99-latency series — proof the time-series
// actually materialized during the run.
const (
	maxHistoryOverheadPct = 5.0
	minSoakWindows        = 3
)

// criticalFiringSeries is the store's own gauge of critical rules firing:
// the store scrapes the registry it reports to, so the gauge's history is
// in the store it describes.
const criticalFiringSeries = `db2www_history_alerts_firing{severity="critical"}`

// RunA12 measures the history store end to end, on the store
// gateway.NewServer builds — there is no server without one. Phase 1 is
// A7's comparison with the scrape as the variable: the same report
// request in paired off/on blocks, median pair kept, with the "on"
// blocks paying a deterministic self-scrape bill. Phase 2 soaks a
// gatewayd with browser traffic while its store records and the default
// alert rules watch, then reads the run back out of the store the way
// /debug/history would.
func RunA12(cfg Config) (*HistoryAblation, error) {
	cfg = cfg.withDefaults()
	if cfg.Soak <= 0 {
		cfg.Soak = 3 * time.Second
	}
	// server builds a gatewayd whose store scrapes every interval, and
	// the request the overhead phase repeats against it.
	server := func(interval time.Duration) (*gateway.Server, *webclient.Client, error) {
		sc := gatewaydConfig(corpusMacros(), cfg.Rows, cfg.Seed)
		sc.HistoryInterval = interval
		srv, err := gateway.NewServer(sc)
		if err != nil {
			return nil, nil, err
		}
		return srv, browser(srv.Handler()), nil
	}

	// Phase 1 — overhead, by the estimator every off/on ablation shares.
	// An on block leads with one synchronous scrape, and the store's own
	// loop is set to an interval no run reaches: a free-running scrape
	// makes the comparison hinge on whether a background tick happened to
	// land inside the window. cfg.Requests buys five pairs for every 50
	// requests, which is what a block held when blocks were counted.
	out := &HistoryAblation{Rows: cfg.Rows, Pairs: 5 * max(cfg.Requests/50, 1)}
	srv, client, err := server(time.Hour)
	if err != nil {
		return nil, err
	}
	request := func() error {
		page, err := client.Get(appendixAReportURL)
		if err != nil {
			return fmt.Errorf("A12: %v", err)
		}
		if page.Status != 200 {
			return fmt.Errorf("A12: status %d", page.Status)
		}
		return nil
	}
	// A store's first scrape creates its rings (0.2–1.3 ms); gatewayd
	// pays that once per process, not once per block.
	srv.History.Scrape()
	overhead, err := pairedBlocks(out.Pairs, request, func(on bool) {
		if on {
			srv.History.Scrape()
		}
	})
	srv.Close()
	if err != nil {
		return nil, err
	}
	out.OffMeanMicros = overhead.OffMicros
	out.OnMeanMicros = overhead.OnMicros
	out.OverheadPct = (overhead.OnMicros/overhead.OffMicros - 1) * 100
	out.BlockRequests = overhead.BlockRequests

	// Phase 2 — soak under the default alert rules. The interval divides
	// the soak so even a short run yields enough windows to judge.
	interval := cfg.Soak / 10
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	if interval > history.DefaultInterval {
		interval = history.DefaultInterval
	}
	srv, client, err = server(interval)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	hist := srv.History
	res, err := webclient.Soak(webclient.SoakConfig{
		Client: client,
		URLs: []string{
			appendixAReportURL,
			"http://server/cgi-bin/db2www/urlquery.d2w/input",
		},
		Duration:    cfg.Soak,
		Concurrency: 2,
	})
	if err != nil {
		return nil, err
	}
	hist.Scrape() // one final scrape so the soak's tail is in the window
	hist.Close()

	out.SoakSeconds = res.Elapsed.Seconds()
	out.SoakRequests = res.Requests
	out.SoakErrors = res.Errors
	for code, n := range res.Statuses {
		if code >= 500 {
			out.Soak5xx += n
		}
	}
	out.Scrapes = hist.Scrapes()
	// Every scrape sampled how many critical rules the one before it left
	// firing; the last one's verdict is still on the engine.
	if !hist.Has(criticalFiringSeries) {
		return nil, fmt.Errorf("A12: the store holds no %s series", criticalFiringSeries)
	}
	for _, p := range hist.Samples(criticalFiringSeries, 0) {
		if p.V > 0 {
			out.CriticalAlerts++
		}
	}
	if hist.CriticalFiring() {
		out.CriticalAlerts++
	}

	// Windows delivered: scrape intervals where the store derived a
	// request rate AND a p99 latency — what /debug/history?series=...
	// would return. The min of the two is the guarantee.
	rateWindows := len(hist.Rate(history.SeriesRequests, 0))
	p99Windows := len(hist.QuantileSeries(history.SeriesLatency, 0.99, 0))
	out.WindowsNonEmpty = rateWindows
	if p99Windows < rateWindows {
		out.WindowsNonEmpty = p99Windows
	}
	return out, nil
}

// Check is A12's gate: it fails when the store costs more than the
// overhead budget, a critical alert fires during a healthy soak, or the
// soak leaves fewer than minSoakWindows windows of samples.
func (r *HistoryAblation) Check() error {
	if r.OverheadPct > maxHistoryOverheadPct {
		return fmt.Errorf("A12: history overhead %.1f%% exceeds the %.1f%% budget",
			r.OverheadPct, maxHistoryOverheadPct)
	}
	if r.CriticalAlerts != 0 {
		return fmt.Errorf("A12: %d critical alert(s) fired during a healthy soak", r.CriticalAlerts)
	}
	if r.WindowsNonEmpty < minSoakWindows {
		return fmt.Errorf("A12: only %d non-empty sample windows, want >= %d",
			r.WindowsNonEmpty, minSoakWindows)
	}
	return nil
}
