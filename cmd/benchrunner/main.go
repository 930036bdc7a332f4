// Command benchrunner regenerates every experiment in DESIGN.md's
// per-experiment index: the reproductions of the paper's figures and
// worked examples (E1–E12) and the design-choice ablations (A1–A12).
//
//	benchrunner                  run everything at default scale
//	benchrunner -exp e7,e8       run selected experiments
//	benchrunner -rows 2000 -requests 1000
//	benchrunner -json results.json   also write machine-readable results
//	benchrunner -soak 60s        A12 soak-phase duration
//	benchrunner -write-golden    (re)generate the golden HTML files
//	benchrunner -no-subprocess   skip building cmd/db2www for E4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"db2www/internal/experiments"
	"db2www/internal/obs"
	"db2www/internal/obs/history"
	"db2www/internal/sqldb"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "comma-separated experiment ids (e1..e12, a1..a12) or all")
		rows         = flag.Int("rows", 500, "urldb dataset rows")
		requests     = flag.Int("requests", 200, "requests per measurement")
		seed         = flag.Int64("seed", 1, "dataset seed")
		soak         = flag.Duration("soak", 0, "A12 soak-phase duration (0 = the experiment's default)")
		jsonPath     = flag.String("json", "", "write machine-readable results to this file, '-' for stdout")
		writeGolden  = flag.Bool("write-golden", false, "write the golden HTML files and exit")
		noSubprocess = flag.Bool("no-subprocess", false, "skip the E4 fork/exec flow")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("benchrunner"))
		return
	}

	if *writeGolden {
		if err := writeGoldens(); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{Rows: *rows, Requests: *requests, Seed: *seed, Soak: *soak}
	runners := map[string]func(io.Writer, experiments.Config) error{
		"e1": experiments.E1, "e2": experiments.E2, "e3": experiments.E3,
		"e4": experiments.E4, "e5": experiments.E5, "e6": experiments.E6,
		"e7": experiments.E7, "e8": experiments.E8, "e9": experiments.E9,
		"e10": experiments.E10, "e11": experiments.E11, "e12": experiments.E12,
		"a1": experiments.A1, "a2": experiments.A2, "a3": experiments.A3,
		"a5": experiments.A5, "a7": experiments.A7,
		"a12": experiments.A12,
	}
	order := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
		"e10", "e11", "e12", "a1", "a2", "a3", "a5", "a7", "a12"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.ToLower(strings.TrimSpace(id))
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, id)
		}
	}

	needsBinary := false
	for _, id := range selected {
		if id == "e4" {
			needsBinary = true
		}
	}
	if needsBinary && !*noSubprocess {
		dir, err := os.MkdirTemp("", "db2www-bin-")
		if err == nil {
			defer os.RemoveAll(dir)
			if bin, berr := experiments.BuildDB2WWW(dir); berr == nil {
				cfg.DB2WWWBinary = bin
			} else {
				fmt.Fprintf(os.Stderr, "benchrunner: e4 subprocess flow disabled: %v\n", berr)
			}
		}
	}

	// jsonResults accumulates the machine-readable rows experiments expose
	// (A7 and A12); keyed by experiment id.
	jsonResults := map[string]any{}
	// The obs registry accumulates across every experiment in the run;
	// the delta over the whole batch lands in the JSON envelope so a CI
	// run's metrics ride along with its latency numbers.
	metricsBefore := obs.Default.Snapshot()
	// A -json run also records the whole batch as a time-series: a
	// history store scraping every 250ms turns the run into trajectories
	// (request rate ramping, cache warming, txn counters moving) instead
	// of just endpoint deltas.
	var hist *history.Store
	if *jsonPath != "" {
		hist = history.New(history.Config{
			Registry:  obs.Default,
			Interval:  250 * time.Millisecond,
			Retention: time.Hour,
		})
		hist.Start()
	}
	failed := false
	for _, id := range selected {
		run := runners[id]
		if id == "a7" && *jsonPath != "" {
			// Capture the structured result instead of re-running.
			run = func(w io.Writer, cfg experiments.Config) error {
				r, err := experiments.RunA7(cfg)
				if err != nil {
					return err
				}
				experiments.PrintA7(w, r)
				jsonResults["a7"] = r
				return r.Check()
			}
		}
		if id == "a12" && *jsonPath != "" {
			run = func(w io.Writer, cfg experiments.Config) error {
				r, err := experiments.RunA12(cfg)
				if err != nil {
					return err
				}
				experiments.PrintA12(w, r)
				jsonResults["a12"] = r
				return r.Check()
			}
		}
		if err := run(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s FAILED: %v\n", id, err)
			failed = true
		}
	}
	if *jsonPath != "" {
		hist.Scrape() // final scrape so the batch's tail is recorded
		hist.Close()
		delta := obs.DeltaSnapshot(metricsBefore, obs.Default.Snapshot())
		if err := writeJSON(*jsonPath, cfg, jsonResults, delta, hist); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: writing %s: %v\n", *jsonPath, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeJSON emits the structured results envelope to path ('-' = stdout).
func writeJSON(path string, cfg experiments.Config, results map[string]any, metricsDelta map[string]float64, hist *history.Store) error {
	doc := map[string]any{
		"config": map[string]any{
			"rows": cfg.Rows, "requests": cfg.Requests, "seed": cfg.Seed,
		},
		"results":       results,
		"metrics_delta": metricsDelta,
		// The busiest statement shapes the run produced, from the engine's
		// statement stats registry (digest, calls, p99, rows, ...).
		"statements": sqldb.Statements.Top(5),
	}
	if hist != nil {
		// Every metric that moved during the batch, as [unix_ms, value]
		// trajectories. Capped so a pathological run cannot balloon the
		// envelope; the drop count keeps the truncation honest.
		series, dropped := hist.ExportMoved(64)
		doc["history"] = map[string]any{
			"interval_ms":    hist.Interval().Milliseconds(),
			"scrapes":        hist.Scrapes(),
			"series":         series,
			"series_dropped": dropped,
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// writeGoldens regenerates the golden HTML files the E2/E7 reproductions
// pin against.
func writeGoldens() error {
	dir := filepath.Join(experiments.RepoRoot(), "testdata", "golden")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fig2, err := experiments.RenderFigure2()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "figure2.html"), []byte(fig2), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", filepath.Join(dir, "figure2.html"), len(fig2))
	input, report, err := experiments.Figure7Report(60, 1)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "figure7_input.html"), []byte(input), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", filepath.Join(dir, "figure7_input.html"), len(input))
	if err := os.WriteFile(filepath.Join(dir, "figure8_report.html"), []byte(report), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", filepath.Join(dir, "figure8_report.html"), len(report))
	return nil
}
