package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"db2www/internal/obs"
	"db2www/internal/obs/history"
	"db2www/internal/webclient"
)

// HistoryAblation is A12's machine-readable result: the report workload
// with the history store off versus on (overhead phase), then a
// sustained webclient soak with the store scraping and the default alert
// rules armed (soak phase).
type HistoryAblation struct {
	Requests      int     `json:"requests"`
	Rows          int     `json:"rows"`
	Rounds        int     `json:"rounds"`
	OffMeanMicros float64 `json:"off_mean_micros"`
	OnMeanMicros  float64 `json:"on_mean_micros"`
	OverheadPct   float64 `json:"overhead_pct"`
	// BlockRequests is how many requests shared the one scrape of the
	// median pair's on block (what scrapeEvery of traffic held).
	BlockRequests int `json:"block_requests"`

	SoakSeconds     float64 `json:"soak_seconds"`
	SoakRequests    int64   `json:"soak_requests"`
	SoakErrors      int64   `json:"soak_errors"`
	Soak5xx         int64   `json:"soak_5xx"`
	Scrapes         int64   `json:"scrapes"`
	CriticalAlerts  int     `json:"critical_alerts"`
	WindowsNonEmpty int     `json:"windows_non_empty"`
}

// ScrapeMicros is the absolute bill behind OverheadPct: what the one
// scrape of the median block pair cost (on − off per block), which does
// not depend on how fast the requests beside it are.
func (r *HistoryAblation) ScrapeMicros() float64 {
	return (r.OnMeanMicros - r.OffMeanMicros) * float64(r.BlockRequests)
}

// A12 acceptance bounds: self-scraping must stay inside the same 5%
// budget as request tracing (maxObsOverheadPct), a healthy soak must
// fire zero critical alerts, and the store must deliver at least this
// many non-empty windows for both the request-rate and p99-latency
// series — proof the time-series actually materialized during the run.
const minSoakWindows = 3

// scrapeEvery is the stretch of traffic the overhead phase bills one
// scrape to: tighter than the 100ms soak interval and ~140× tighter than
// the 5s production default, so the measured overhead upper-bounds what
// gatewayd pays.
const scrapeEvery = 35 * time.Millisecond

// RunA12 measures the history store end to end. Phase 1 is the A7
// idea with the store as the variable and finer interleaving: the same
// report request in paired off/on blocks of scrapeEvery, median pair
// kept, with the "on" blocks paying a deterministic self-scrape bill far
// tighter than production cadence. Phase 2 soaks the gateway with
// browser traffic while the store records and the default alert rules
// watch, then reads the run back out of the store the way
// /debug/history would.
func RunA12(cfg Config) (*HistoryAblation, error) {
	cfg = cfg.withDefaults()
	if cfg.Soak <= 0 {
		cfg.Soak = 3 * time.Second
	}
	st, err := NewStack(StackConfig{Rows: cfg.Rows, Seed: cfg.Seed, CacheMacros: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	client := st.Client()
	const reportURL = "http://server/cgi-bin/db2www/urlquery.d2w/report" +
		"?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"

	// runBlock serves requests for scrapeEvery, the on side leading with
	// one synchronous scrape whose bill lands inside the timed section —
	// amortized into the block mean exactly as it would amortize into
	// served-request latency. The cadence is a stretch of traffic, not a
	// count of requests: a scrape costs what the registry holds, whatever
	// a request costs, so "one scrape per 50 requests" became a tighter
	// cadence every time the request got cheaper (~35ms when that was
	// written, ~10ms after the LIKE program) and the same scrape a larger
	// percentage. Synchronous (the store is never Started here) because a
	// free-running scrape goroutine makes the comparison hinge on whether
	// a background tick happened to land inside the window. Every block
	// starts from a collected heap, outside the timed section, so that
	// the two blocks of a pair see the same number of GC cycles.
	runBlock := func(hist *history.Store) (micros float64, n int, err error) {
		runtime.GC()
		start := time.Now()
		if hist != nil {
			hist.Scrape()
		}
		for n == 0 || time.Since(start) < scrapeEvery {
			page, err := client.Get(reportURL)
			if err != nil {
				return 0, 0, fmt.Errorf("A12: %v", err)
			}
			if page.Status != 200 {
				return 0, 0, fmt.Errorf("A12: status %d", page.Status)
			}
			n++
		}
		return float64(time.Since(start)) / float64(time.Microsecond) / float64(n), n, nil
	}

	// Phase 1 — overhead. The off/on sides alternate in adjacent
	// blocks rather than back-to-back full runs: scheduler and GC
	// drift on this workload moves single-run means by ~10%, far more
	// than the effect under measurement. Each adjacent (off, on) block
	// pair yields one ratio of mean request times — the pairing cancels
	// any drift slower than a block — and the median pair across all
	// rounds is the reported result, so a spike landing in one block
	// poisons one of ~20 pairs instead of a whole side's mean.
	// (Best-of-N means per side and median-of-round-means both proved
	// looser: the former's minima come from different rounds and inherit
	// their relative luck, the latter still averages spikes into every
	// round.) cfg.Requests buys one pair per round for every 50 requests,
	// which is what a block held when blocks were counted.
	const rounds = 5
	blocks := max(cfg.Requests/50, 1)
	out := &HistoryAblation{Rows: cfg.Rows, Rounds: rounds}
	type pair struct {
		off, on float64 // mean µs per request
		onN     int
	}
	var pairs []pair
	if _, _, err := runBlock(nil); err != nil { // warm the request path
		return nil, err
	}
	for round := 0; round < rounds; round++ {
		hist := history.New(history.Config{
			Registry:  obs.Default,
			Interval:  100 * time.Millisecond,
			Retention: time.Minute,
		})
		// A store's first scrape creates its rings (0.2–1.3 ms);
		// gatewayd pays that once per process, not once per block.
		hist.Scrape()
		for b := 0; b < blocks; b++ {
			off, offN, err := runBlock(nil)
			if err != nil {
				hist.Close()
				return nil, err
			}
			on, onN, err := runBlock(hist)
			if err != nil {
				hist.Close()
				return nil, err
			}
			out.Requests += offN
			pairs = append(pairs, pair{off, on, onN})
		}
		hist.Close()
	}
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i].on/pairs[i].off < pairs[j].on/pairs[j].off
	})
	med := pairs[len(pairs)/2]
	out.Requests /= rounds
	out.OffMeanMicros = med.off
	out.OnMeanMicros = med.on
	out.OverheadPct = (med.on/med.off - 1) * 100
	out.BlockRequests = med.onN

	// Phase 2 — soak under the default alert rules. The interval divides
	// the soak so even a short run yields enough windows to judge.
	interval := cfg.Soak / 10
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	if interval > history.DefaultInterval {
		interval = history.DefaultInterval
	}
	criticalFired := 0
	hist := history.New(history.Config{
		Registry:  obs.Default,
		Interval:  interval,
		Retention: 10 * cfg.Soak,
		Rules:     history.DefaultRules(),
		OnAlert: func(r history.Rule, _ float64) {
			if r.Severity == history.SeverityCritical {
				criticalFired++
			}
		},
	})
	hist.Start()
	res, err := webclient.Soak(webclient.SoakConfig{
		Client: client,
		URLs: []string{
			reportURL,
			"http://server/cgi-bin/db2www/urlquery.d2w/input",
		},
		Duration:    cfg.Soak,
		Concurrency: 2,
	})
	if err != nil {
		hist.Close()
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
	out.CriticalAlerts = criticalFired
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

// PrintA12 renders a HistoryAblation in the benchrunner table style.
func PrintA12(w io.Writer, r *HistoryAblation) {
	section(w, "A12 — history store off vs on (self-scrape overhead + soak)")
	fmt.Fprintf(w, "urldb rows: %d, requests per side per round: %d, rounds: %d (median block pair kept)\n",
		r.Rows, r.Requests, r.Rounds)
	fmt.Fprintf(w, "%10s %14s\n", "history", "mean")
	fmt.Fprintf(w, "%10s %13.0fµ\n", "off", r.OffMeanMicros)
	fmt.Fprintf(w, "%10s %13.0fµ\n", "on", r.OnMeanMicros)
	fmt.Fprintf(w, "%s, one scrape per %v of traffic (%d requests): %.0f µs\n",
		overheadText(r.OffMeanMicros, r.OnMeanMicros, r.OverheadPct, maxObsOverheadPct), scrapeEvery, r.BlockRequests, r.ScrapeMicros())
	fmt.Fprintf(w, "soak: %.1fs, %d requests (%d errors, %d 5xx), %d scrapes\n",
		r.SoakSeconds, r.SoakRequests, r.SoakErrors, r.Soak5xx, r.Scrapes)
	fmt.Fprintf(w, "critical alerts fired: %d (want 0), non-empty windows: %d (want >= %d)\n",
		r.CriticalAlerts, r.WindowsNonEmpty, minSoakWindows)
}

// A12 runs RunA12, prints the result, and fails when the store costs
// more than the overhead budget, a critical alert fires during a healthy
// soak, or the soak leaves fewer than minSoakWindows windows of samples.
func A12(w io.Writer, cfg Config) error {
	r, err := RunA12(cfg)
	if err != nil {
		return err
	}
	PrintA12(w, r)
	if r.OverheadPct > maxObsOverheadPct {
		return fmt.Errorf("A12: history overhead %.1f%% exceeds the %.1f%% budget",
			r.OverheadPct, maxObsOverheadPct)
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
