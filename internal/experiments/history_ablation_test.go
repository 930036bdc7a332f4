package experiments

import (
	"testing"
	"time"
)

// maxTestScrapeMicros bounds what one synchronous scrape of the whole
// registry may add to the block it is billed to in
// TestA12HistoryAblation. Timed on its own a scrape is 20–100 µs; read
// as on − off over the median of 20 block pairs it is the noise of the
// estimator: −0.9…+1.7 ms over 30 runs on an idle 2-vCPU box, the same
// for pairedBlocks as for the loop it was lifted from; beside a loop of
// the root package's golden test (seven `go run`s) mostly −4.4…+4.5 ms,
// with 3 readings of 43 over the ceiling (+5.5, +5.6, +11.5 ms). The
// ceiling sits just above the noise and catches a scrape that has become
// a different kind of cost (a walk over every statement digest, a lock
// held across requests: an 8 ms sleep beside the scrape reads +7.7…+10.8
// ms every time). A reading over it is taken again, twice at most: noise
// did not repeat in those 40 runs, and such a cost does.
const (
	maxTestScrapeMicros = 5_000
	scrapeAttempts      = 3
)

// TestA12HistoryAblation runs the history-store experiment at small
// scale: a short soak still has to deliver non-empty sample windows, a
// zero critical-alert count, and a populated overhead comparison. What is
// gated of that comparison is the scrape's absolute bill per block, not
// its ratio to the 40-row requests beside it: a ratio measures how fast
// those requests are, and the 5% budget it belongs to is enforced at full
// scale by BenchmarkA12_HistoryStore on the 500-row report.
func TestA12HistoryAblation(t *testing.T) {
	cfg := Config{Rows: 40, Requests: 200, Seed: 1, Soak: 1200 * time.Millisecond}
	var r *HistoryAblation
	for attempt := 1; ; attempt++ {
		var err error
		if r, err = RunA12(cfg); err != nil {
			t.Fatalf("A12: %v", err)
		}
		if r.OffMeanMicros <= 0 || r.OnMeanMicros <= 0 || r.BlockRequests == 0 || r.Pairs != 20 {
			t.Fatalf("overhead comparison not populated: %+v", r)
		}
		t.Logf("one scrape: %+.0f µs (on %.1f µs/request, off %.1f, %d requests a block)",
			r.ScrapeMicros(), r.OnMeanMicros, r.OffMeanMicros, r.BlockRequests)
		if r.ScrapeMicros() <= maxTestScrapeMicros {
			break
		}
		if attempt == scrapeAttempts {
			t.Fatalf("one scrape costs %.0f µs (on %.0f µs/request, off %.0f, %d requests a block), ceiling %d µs, %d readings in a row",
				r.ScrapeMicros(), r.OnMeanMicros, r.OffMeanMicros, r.BlockRequests, maxTestScrapeMicros, scrapeAttempts)
		}
	}
	if r.SoakRequests == 0 || r.SoakErrors != 0 {
		t.Fatalf("soak result: %+v", r)
	}
	if r.Soak5xx != 0 {
		t.Fatalf("healthy soak produced %d 5xx", r.Soak5xx)
	}
	if r.CriticalAlerts != 0 {
		t.Fatalf("healthy soak fired %d critical alerts", r.CriticalAlerts)
	}
	if r.WindowsNonEmpty < minSoakWindows {
		t.Fatalf("windows = %d, want >= %d (scrapes = %d)",
			r.WindowsNonEmpty, minSoakWindows, r.Scrapes)
	}
}

// fullScaleSoak is how long BenchmarkA12_HistoryStore keeps browser
// traffic on a server whose store scrapes and whose default alert rules
// watch.
const fullScaleSoak = 60 * time.Second

// BenchmarkA12_HistoryStore is the A12 gate at full scale (500 rows, 20
// block pairs, fullScaleSoak): it fails when a scrape per blockTime of
// traffic costs the Appendix A request more than maxHistoryOverheadPct,
// when a critical alert fires during the soak, or when the store delivers
// fewer than minSoakWindows windows. One iteration is one run of the
// gate, so it wants -benchtime 1x:
//
//	go test -run '^$' -bench A12_ -benchtime 1x ./internal/experiments
func BenchmarkA12_HistoryStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunA12(Config{Soak: fullScaleSoak})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OffMeanMicros, "off-µs")
		b.ReportMetric(r.OnMeanMicros, "on-µs")
		b.ReportMetric(r.OverheadPct, "overhead-%")
		b.ReportMetric(r.ScrapeMicros(), "scrape-µs")
		b.ReportMetric(float64(r.SoakRequests), "soak-requests")
		b.ReportMetric(float64(r.Soak5xx), "soak-5xx")
		b.ReportMetric(float64(r.Scrapes), "scrapes")
		b.ReportMetric(float64(r.CriticalAlerts), "critical-alerts")
		b.ReportMetric(float64(r.WindowsNonEmpty), "windows")
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
	}
}
