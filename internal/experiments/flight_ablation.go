package experiments

import (
	"fmt"
	"io"
	"time"

	"db2www/internal/flight"
)

// FlightAblation is A8's machine-readable result: the Appendix A report
// workload through the full HTTP gateway with the flight recorder off
// (nil, the -flight=false path) versus on at production defaults
// (sample rate 0.01, 200ms slow threshold, ring only — no JSONL sink,
// matching gatewayd with no -flight-dir). Means are the best of Rounds
// interleaved rounds per side.
type FlightAblation struct {
	Requests      int     `json:"requests"`
	Rows          int     `json:"rows"`
	Rounds        int     `json:"rounds"`
	OffMeanMicros float64 `json:"off_mean_micros"`
	OnMeanMicros  float64 `json:"on_mean_micros"`
	OverheadPct   float64 `json:"overhead_pct"`
	// KeptRecords counts what the tail sampler retained across the whole
	// run — healthy fast traffic at rate 0.01 should keep almost nothing.
	KeptRecords int `json:"kept_records"`
	// SLOMacros counts macros the burn-rate engine tracked (the SLO sees
	// every request regardless of sampling).
	SLOMacros int `json:"slo_macros"`
}

// maxFlightOverheadPct is the acceptance bound A8 enforces: journalling
// every request and tail-sampling it must cost less than this
// percentage of the flight-off request path.
const maxFlightOverheadPct = 5.0

// RunA8 measures flight-recorder overhead end to end: the same report
// request (query cache off, so the journalled SQL work is real) through
// gateway.Handler.ServeHTTP with h.Flight nil versus a recorder at
// production defaults, in interleaved rounds. Observability stays
// enabled on both sides — A8 isolates the flight layer, not tracing
// (that delta is A7's).
func RunA8(cfg Config) (*FlightAblation, error) {
	cfg = cfg.withDefaults()
	st, err := NewStack(StackConfig{Rows: cfg.Rows, Seed: cfg.Seed, CacheMacros: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rec, err := flight.New(flight.Config{SampleRate: 0.01})
	if err != nil {
		return nil, err
	}
	client := st.Client()
	const reportURL = "http://server/cgi-bin/db2www/urlquery.d2w/report" +
		"?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"

	measure := func(n int) (time.Duration, error) {
		lat := &Latencies{}
		for i := 0; i < n; i++ {
			start := time.Now()
			page, err := client.Get(reportURL)
			if err != nil {
				return 0, fmt.Errorf("A8: %v", err)
			}
			if page.Status != 200 {
				return 0, fmt.Errorf("A8: status %d", page.Status)
			}
			lat.Add(time.Since(start))
		}
		return lat.Mean(), nil
	}

	// Interleaved best-of-rounds, same reasoning as A7: per-round means
	// swing with scheduler noise, min-of-N per side cancels drift.
	const rounds = 5
	out := &FlightAblation{Requests: cfg.Requests, Rows: cfg.Rows, Rounds: rounds}
	var offBest, onBest time.Duration
	for round := 0; round < rounds; round++ {
		for _, on := range []bool{false, true} {
			if on {
				st.Handler.Flight = rec
			} else {
				st.Handler.Flight = nil
			}
			if round == 0 {
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
	st.Handler.Flight = nil
	out.OffMeanMicros = float64(offBest) / float64(time.Microsecond)
	out.OnMeanMicros = float64(onBest) / float64(time.Microsecond)
	if offBest > 0 {
		out.OverheadPct = (float64(onBest) - float64(offBest)) / float64(offBest) * 100
	}
	out.KeptRecords = len(rec.Records(0))
	out.SLOMacros = len(rec.SLO().Snapshot())
	return out, nil
}

// PrintA8 renders a FlightAblation in the benchrunner table style.
func PrintA8(w io.Writer, r *FlightAblation) {
	section(w, "A8 — flight recorder off vs on (journal + tail sampler overhead)")
	fmt.Fprintf(w, "urldb rows: %d, requests per side per round: %d, rounds: %d (best mean kept)\n",
		r.Rows, r.Requests, r.Rounds)
	fmt.Fprintf(w, "%10s %14s\n", "flight", "mean")
	fmt.Fprintf(w, "%10s %13.0fµ\n", "off", r.OffMeanMicros)
	fmt.Fprintf(w, "%10s %13.0fµ\n", "on", r.OnMeanMicros)
	fmt.Fprintf(w, "%s, %d records kept, %d SLO macros tracked\n",
		overheadText(r.OffMeanMicros, r.OnMeanMicros, r.OverheadPct, maxFlightOverheadPct), r.KeptRecords, r.SLOMacros)
}

// A8 runs RunA8, prints the result, and fails when the flight recorder
// costs more than the overhead budget.
func A8(w io.Writer, cfg Config) error {
	r, err := RunA8(cfg)
	if err != nil {
		return err
	}
	PrintA8(w, r)
	if r.OverheadPct > maxFlightOverheadPct {
		return fmt.Errorf("A8: flight recorder overhead %.1f%% exceeds the %.1f%% budget",
			r.OverheadPct, maxFlightOverheadPct)
	}
	return nil
}
