package main

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/flight"
	"db2www/internal/gateway"
	"db2www/internal/macrolint"
	"db2www/internal/obs"
	"db2www/internal/obs/history"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/sqlsema"
	datasets "db2www/internal/workload"
)

// databaseName is gatewayd's default -database; the macros name it.
const databaseName = "CELDIAL"

// stack is what cmd/gatewayd builds with default flags, assembled from
// the same public constructors, with the benchmark's span wrappers at
// the three boundaries that take one. The oracle proves the copy has not
// drifted: every page of the real binary must equal the page this stack
// renders.
type stack struct {
	db   *sqldb.Database
	app  *gateway.App
	root http.Handler // what gatewayd hands to http.ListenAndServe
	stop func()
}

func newStack(w *workload, macroDir string, t *tracer) (*stack, error) {
	db := sqldb.NewDatabase(databaseName)
	if err := datasets.Load(db, w.dataset); err != nil {
		return nil, fmt.Errorf("loading dataset %s: %w", w.dataset, err)
	}
	sqldriver.Register(databaseName, db)
	quit := make(chan struct{})
	vacuumed := make(chan struct{})
	go func() {
		defer close(vacuumed)
		tick := time.NewTicker(5 * time.Second) // -vacuum-interval
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				db.Vacuum()
			case <-quit:
				return
			}
		}
	}()

	h := &gateway.Handler{TraceRing: obs.NewRing(64)}
	rec, err := flight.New(flight.Config{
		SampleRate:    0.01,
		SlowThreshold: 200 * time.Millisecond,
		SLO:           flight.SLOConfig{AvailabilityTarget: 0.999, LatencyThreshold: 250 * time.Millisecond},
		Metrics:       obs.Default,
	})
	if err != nil {
		return nil, fmt.Errorf("flight recorder: %w", err)
	}
	h.Flight = rec
	rec.SLO().ExportTo(obs.Default)
	obs.RegisterRuntimeMetrics(obs.Default)
	obs.RegisterBuildInfo(obs.Default)

	engine := &core.Engine{
		DB:       tracedProvider{inner: gateway.NewSQLProvider(), t: t},
		Commands: core.NewCommandRegistry(),
	}
	app := &gateway.App{MacroDir: macroDir, Engine: engine, CacheMacros: true}
	h.App = tracedApp{app: app, t: t}

	linter, err := lintPreflight(db, macroDir)
	if err != nil {
		return nil, err
	}
	app.Lint = linter

	al := gateway.NewAccessLog(h, nil)
	sqldb.RegisterMetrics(db)
	hist := history.New(history.Config{Registry: obs.Default, Rules: history.DefaultRules()})
	hist.Start()

	return &stack{
		db:   db,
		app:  app,
		root: tracedHandler{next: al, t: t},
		stop: func() {
			close(quit)
			<-vacuumed
			hist.Close()
			rec.Close()
			sqldriver.Unregister(databaseName)
		},
	}, nil
}

// lintPreflight is gatewayd's -lint warn preflight: the macro directory
// analysed against the live catalog. An error-severity finding would
// leave the real server's /readyz at 503 and setup_s without an end, so
// here it is an error.
func lintPreflight(db *sqldb.Database, macroDir string) (*macrolint.Linter, error) {
	macrolint.RegisterMetrics()
	linter := macrolint.New()
	linter.Schema = sqlsema.FromDatabase(db)
	_, diags, err := linter.LintDir(macroDir)
	if err != nil {
		return nil, fmt.Errorf("lint preflight of %s: %w", macroDir, err)
	}
	macrolint.Record(diags)
	for _, d := range diags {
		if d.Severity == macrolint.SevError {
			return nil, fmt.Errorf("lint preflight: %s", d)
		}
	}
	return linter, nil
}

func (r request) httpRequest(baseURL string) (*http.Request, error) {
	var req *http.Request
	var err error
	if r.method == "POST" {
		req, err = http.NewRequest("POST", baseURL+r.path, strings.NewReader(r.body))
		if err == nil {
			req.Header.Set("Content-Type", cgi.FormEncoded)
		}
	} else {
		req, err = http.NewRequest("GET", baseURL+r.path, nil)
	}
	return req, err
}

// prepare lists the workload's distinct read requests and has the
// stack, to which nothing has been written yet, render each: the page's
// SHA-256 and row count are the oracle the runs check against. For a
// workload with writes it also reads the quantities the ships start from.
func (s *stack) prepare(w *workload) (space []request, initial map[int]int, err error) {
	if space, err = w.space(s.db); err != nil {
		return nil, nil, err
	}
	for i := range space {
		r := &space[i]
		req, err := r.httpRequest("http://oracle")
		if err != nil {
			return nil, nil, err
		}
		rec := httptest.NewRecorder()
		s.root.ServeHTTP(rec, req)
		if rec.Code != 200 {
			return nil, nil, fmt.Errorf("oracle: %s %s %s: status %d: %s", r.method, r.path, r.body, rec.Code, rec.Body)
		}
		r.sum = sha256.Sum256(rec.Body.Bytes())
		r.rows = markerRows(rec.Body.Bytes())
	}
	if !w.exact {
		initial, err = initialQuantities(s.db)
	}
	return space, initial, err
}
