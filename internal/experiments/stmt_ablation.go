package experiments

import (
	"fmt"
	"io"
	"time"

	"db2www/internal/obs"
	"db2www/internal/sqldb"
)

// StmtAblation is A10's machine-readable result: the Appendix A report
// workload with the engine-stats layer (statement digest + registry
// recording, per-table conflict attribution, vacuum chain histogram —
// everything PR 7 added behind the obs gate) disabled versus enabled.
// Means are the best of Rounds interleaved rounds per side, as in A7.
type StmtAblation struct {
	Requests       int     `json:"requests"`
	Rows           int     `json:"rows"`
	Rounds         int     `json:"rounds"`
	OffMeanMicros  float64 `json:"off_mean_micros"`
	OnMeanMicros   float64 `json:"on_mean_micros"`
	OverheadPct    float64 `json:"overhead_pct"`
	DigestsTracked int     `json:"digests_tracked"`
}

// maxStmtOverheadPct is A10's acceptance bound: the fully-instrumented
// engine (statement stats on top of A7's tracing) must cost less than
// this percentage of the bare engine on the end-to-end request path.
const maxStmtOverheadPct = 5.0

// RunA10 measures the engine-stats overhead end to end. The same
// obs.SetEnabled switch A7 toggles also gates statement-stats recording,
// so the on side here carries digest normalization, registry updates,
// and MVCC telemetry for every statement — the full observability bill.
func RunA10(cfg Config) (*StmtAblation, error) {
	cfg = cfg.withDefaults()
	defer obs.SetEnabled(true)
	st, err := NewStack(StackConfig{Rows: cfg.Rows, Seed: cfg.Seed, CacheMacros: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	client := st.Client()
	const reportURL = "http://server/cgi-bin/db2www/urlquery.d2w/report" +
		"?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"

	sqldb.Statements.Reset()

	measure := func(n int) (time.Duration, error) {
		lat := &Latencies{}
		for i := 0; i < n; i++ {
			start := time.Now()
			page, err := client.Get(reportURL)
			if err != nil {
				return 0, fmt.Errorf("A10: %v", err)
			}
			if page.Status != 200 {
				return 0, fmt.Errorf("A10: status %d", page.Status)
			}
			lat.Add(time.Since(start))
		}
		return lat.Mean(), nil
	}

	const rounds = 5
	out := &StmtAblation{Requests: cfg.Requests, Rows: cfg.Rows, Rounds: rounds}
	var offBest, onBest time.Duration
	for round := 0; round < rounds; round++ {
		for _, on := range []bool{false, true} {
			obs.SetEnabled(on)
			if round == 0 {
				// Warm each side's code path before its first measurement.
				if _, err := measure(5); err != nil {
					return nil, err
				}
			}
			mean, err := measure(cfg.Requests)
			if err != nil {
				return nil, err
			}
			if on {
				if onBest == 0 || mean < onBest {
					onBest = mean
				}
			} else {
				if offBest == 0 || mean < offBest {
					offBest = mean
				}
			}
		}
	}
	out.OffMeanMicros = float64(offBest) / float64(time.Microsecond)
	out.OnMeanMicros = float64(onBest) / float64(time.Microsecond)
	if offBest > 0 {
		out.OverheadPct = (float64(onBest) - float64(offBest)) / float64(offBest) * 100
	}
	out.DigestsTracked = sqldb.Statements.Len()
	return out, nil
}

// PrintA10 renders a StmtAblation in the benchrunner table style.
func PrintA10(w io.Writer, r *StmtAblation) {
	section(w, "A10 — engine stats off vs on (statement registry + MVCC telemetry overhead)")
	fmt.Fprintf(w, "urldb rows: %d, requests per side per round: %d, rounds: %d (best mean kept)\n",
		r.Rows, r.Requests, r.Rounds)
	fmt.Fprintf(w, "%10s %14s\n", "stats", "mean")
	fmt.Fprintf(w, "%10s %13.0fµ\n", "off", r.OffMeanMicros)
	fmt.Fprintf(w, "%10s %13.0fµ\n", "on", r.OnMeanMicros)
	fmt.Fprintf(w, "%s, %d distinct digests tracked\n",
		overheadText(r.OffMeanMicros, r.OnMeanMicros, r.OverheadPct, maxStmtOverheadPct), r.DigestsTracked)
}

// A10 runs RunA10, prints the result, and fails when the full
// engine-stats layer costs more than the overhead budget.
func A10(w io.Writer, cfg Config) error {
	r, err := RunA10(cfg)
	if err != nil {
		return err
	}
	PrintA10(w, r)
	if r.OverheadPct > maxStmtOverheadPct {
		return fmt.Errorf("A10: engine-stats overhead %.1f%% exceeds the %.1f%% budget",
			r.OverheadPct, maxStmtOverheadPct)
	}
	if r.DigestsTracked == 0 {
		return fmt.Errorf("A10: no statement digests tracked — the stats registry never recorded")
	}
	return nil
}
