package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// maxTestScrapeMicros bounds what one synchronous scrape of the whole
// registry may add to the block it is billed to in
// TestA12HistoryAblation. Timed on its own a scrape is 20–100 µs; read
// as on − off over the median of 20 block pairs it comes out between −2
// and +2 ms on a loaded 2-vCPU box, which is the noise of the estimator.
// The ceiling sits just above that noise and catches a scrape that has
// become a different kind of cost (a walk over every statement digest, a
// lock held across requests).
const maxTestScrapeMicros = 5_000

// TestA12HistoryAblation runs the history-store experiment at small
// scale: a short soak still has to deliver non-empty sample windows, a
// zero critical-alert count, and a populated overhead comparison. What is
// gated of that comparison is the scrape's absolute bill per block, not
// its ratio to the 40-row requests beside it: a ratio measures how fast
// those requests are, and the 5% budget it belongs to is enforced at full
// scale by A12/benchrunner on the 500-row report.
func TestA12HistoryAblation(t *testing.T) {
	cfg := Config{Rows: 40, Requests: 200, Seed: 1, Soak: 1200 * time.Millisecond}
	r, err := RunA12(cfg)
	if err != nil {
		t.Fatalf("A12: %v", err)
	}
	if r.OffMeanMicros <= 0 || r.OnMeanMicros <= 0 {
		t.Fatalf("timings not populated: %+v", r)
	}
	if r.ScrapeMicros() > maxTestScrapeMicros {
		t.Fatalf("one scrape costs %.0f µs (on %.0f µs/request, off %.0f, %d requests a block), ceiling %d µs",
			r.ScrapeMicros(), r.OnMeanMicros, r.OffMeanMicros, r.BlockRequests, maxTestScrapeMicros)
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
	var buf bytes.Buffer
	PrintA12(&buf, r)
	for _, want := range []string{"history store", "overhead", "critical alerts", "windows"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("PrintA12 output missing %q:\n%s", want, buf.String())
		}
	}
}
