package experiments

import (
	"fmt"
	"io"
	"time"

	"db2www/internal/obs"
)

// ObsAblation is A7's machine-readable result: the Appendix A report
// workload driven through the full HTTP gateway with observability
// disabled versus enabled (trace minting, spans, registry metrics, the
// trace ring). Means are the best of Rounds interleaved rounds per side,
// which cancels drift a single long off-then-on run would absorb.
type ObsAblation struct {
	Requests      int     `json:"requests"`
	Rows          int     `json:"rows"`
	Rounds        int     `json:"rounds"`
	OffMeanMicros float64 `json:"off_mean_micros"`
	OnMeanMicros  float64 `json:"on_mean_micros"`
	OverheadPct   float64 `json:"overhead_pct"`
	SpansPerTrace float64 `json:"spans_per_trace"`
}

// maxObsOverheadPct is the acceptance bound A7 enforces: always-on
// request tracing must cost less than this percentage of the
// uninstrumented request path.
const maxObsOverheadPct = 5.0

// RunA7 measures observability overhead end to end: the same report
// request (a substring-LIKE full scan, query cache off, so the work the
// instrumentation brackets is real) through gateway.Handler.ServeHTTP
// with obs disabled and enabled, in interleaved rounds.
func RunA7(cfg Config) (*ObsAblation, error) {
	cfg = cfg.withDefaults()
	defer obs.SetEnabled(true)
	st, err := NewStack(StackConfig{Rows: cfg.Rows, Seed: cfg.Seed, CacheMacros: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ring := obs.NewRing(64)
	st.Handler.TraceRing = ring
	client := st.Client()
	const reportURL = "http://server/cgi-bin/db2www/urlquery.d2w/report" +
		"?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"

	measure := func(n int) (time.Duration, error) {
		lat := &Latencies{}
		for i := 0; i < n; i++ {
			start := time.Now()
			page, err := client.Get(reportURL)
			if err != nil {
				return 0, fmt.Errorf("A7: %v", err)
			}
			if page.Status != 200 {
				return 0, fmt.Errorf("A7: status %d", page.Status)
			}
			lat.Add(time.Since(start))
		}
		return lat.Mean(), nil
	}

	// Five rounds: run-to-run scheduler noise at this request count swings
	// individual means by several percent, and min-of-N per side needs
	// enough draws to shake it off.
	const rounds = 5
	out := &ObsAblation{Requests: cfg.Requests, Rows: cfg.Rows, Rounds: rounds}
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
	var spans int
	traces := ring.Snapshot()
	for _, t := range traces {
		spans += len(t.Spans())
	}
	if len(traces) > 0 {
		out.SpansPerTrace = float64(spans) / float64(len(traces))
	}
	return out, nil
}

// PrintA7 renders an ObsAblation in the benchrunner table style.
func PrintA7(w io.Writer, r *ObsAblation) {
	section(w, "A7 — observability off vs on (tracing + metrics overhead)")
	fmt.Fprintf(w, "urldb rows: %d, requests per side per round: %d, rounds: %d (best mean kept)\n",
		r.Rows, r.Requests, r.Rounds)
	fmt.Fprintf(w, "%10s %14s\n", "obs", "mean")
	fmt.Fprintf(w, "%10s %13.0fµ\n", "off", r.OffMeanMicros)
	fmt.Fprintf(w, "%10s %13.0fµ\n", "on", r.OnMeanMicros)
	fmt.Fprintf(w, "%s, %.1f spans per trace\n",
		overheadText(r.OffMeanMicros, r.OnMeanMicros, r.OverheadPct, maxObsOverheadPct), r.SpansPerTrace)
}

// A7 runs RunA7, prints the result, and fails when tracing costs more
// than the overhead budget.
func A7(w io.Writer, cfg Config) error {
	r, err := RunA7(cfg)
	if err != nil {
		return err
	}
	PrintA7(w, r)
	if r.OverheadPct > maxObsOverheadPct {
		return fmt.Errorf("A7: observability overhead %.1f%% exceeds the %.1f%% budget",
			r.OverheadPct, maxObsOverheadPct)
	}
	return nil
}
