// Command gatewayd is the Web server of the paper's Figure 1: it serves
// an organisation's static pages and routes /cgi-bin/db2www URLs to the
// DB2WWW application — in-process by default, or by forking a real CGI
// subprocess per request with -cgi (the faithful 1996 process model).
//
//	gatewayd -addr :8080 -macros ./macros -dataset urldb:500:1
//	gatewayd -addr :8080 -macros ./macros -cgi ./db2www
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"db2www/internal/core"
	"db2www/internal/flight"
	"db2www/internal/gateway"
	"db2www/internal/macrolint"
	"db2www/internal/obs"
	"db2www/internal/obs/history"
	"db2www/internal/qcache"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/sqlsema"
	"db2www/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		macros   = flag.String("macros", "./macros", "macro root directory")
		docroot  = flag.String("docroot", "", "static document root (optional)")
		database = flag.String("database", "CELDIAL", "in-memory database name")
		dataset  = flag.String("dataset", "urldb", "dataset spec (see workload.Load)")
		txn      = flag.String("txn", "auto", "transaction mode: auto or single")
		cache    = flag.Bool("cache", true, "cache parsed macros")
		maxRows  = flag.Int("maxrows", 0, "default report row cap (0 = unlimited)")
		cgiProg  = flag.String("cgi", "", "path to a db2www CGI executable; enables subprocess mode")
		lintMode = flag.String("lint", "warn", "macro lint: off, warn (preflight + log findings), or strict (refuse to start or serve on lint errors)")
		auth     = flag.String("auth", "", "user:password for HTTP basic auth (optional)")
		load     = flag.String("load", "", "restore a database dump instead of generating -dataset")
		save     = flag.String("save", "", "dump the database to this file on SIGINT/SIGTERM")
		logPath  = flag.String("accesslog", "", "write access log lines to this file; also enables /server-status")
		logFmt   = flag.String("access-log-format", "clf", "access log line format: clf (NCSA Common Log Format) or json (one object per line with trace/flight/digest/latency fields)")

		vacuumInterval = flag.Duration("vacuum-interval", 5*time.Second, "background version-chain vacuum period (0 disables)")

		qcacheOn    = flag.Bool("qcache", false, "cache %EXEC_SQL query results (LRU, table-version invalidation)")
		qcacheBytes = flag.Int64("qcache-bytes", 64<<20, "query cache byte budget")
		qcacheTTL   = flag.Duration("qcache-ttl", 0, "query cache entry lifetime (0 = no TTL, rely on invalidation)")

		historyOn        = flag.Bool("history", true, "embedded metrics time-series: self-scrape the registry into /debug/history, /debug/dash, and the alert engine")
		historyInterval  = flag.Duration("history-interval", history.DefaultInterval, "history scrape period")
		historyRetention = flag.Duration("history-retention", history.DefaultRetention, "history sample retention span")
		alertRules       = flag.String("alert-rules", "", "alert rules file (one rule per line, see docs/HISTORY.md); empty uses the built-in defaults")

		flightOn     = flag.Bool("flight", true, "flight recorder: per-request records with tail-based sampling, SLO burn rates, /debug/flight")
		flightDir    = flag.String("flight-dir", "", "persist kept flight records (rotating JSONL) and anomaly pprof snapshots here")
		flightSample = flag.Float64("flight-sample", 0.01, "keep probability for healthy requests (errors and slow requests are always kept)")
		sloTarget    = flag.Float64("slo-target", 0.999, "availability SLO: fraction of requests that must not be 5xx")
		sloLatency   = flag.Duration("slo-latency", 250*time.Millisecond, "latency SLO threshold: requests over it count against the latency budget")

		version          = flag.Bool("version", false, "print build information and exit")
		slowlogPath      = flag.String("slowlog", "", "write slow-request lines (trace, spans, SQL) to this file; \"-\" for stderr")
		slowlogThreshold = flag.Duration("slowlog-threshold", 200*time.Millisecond, "log requests slower than this")
		traceRingSize    = flag.Int("trace-ring", 64, "recent request traces kept for /server-status (0 disables)")
		pprofAddr        = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("gatewayd"))
		return
	}

	var qc *qcache.Cache
	if *qcacheOn {
		qc = qcache.New(*qcacheBytes, *qcacheTTL)
	}

	h := &gateway.Handler{DocRoot: *docroot}
	var ring *obs.Ring
	if *traceRingSize > 0 {
		ring = obs.NewRing(*traceRingSize)
		h.TraceRing = ring
	}
	if *slowlogPath != "" {
		out := io.Writer(os.Stderr)
		if *slowlogPath != "-" {
			f, err := os.OpenFile(*slowlogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("opening slow log: %v", err)
			}
			defer f.Close()
			out = f
		}
		h.SlowLog = obs.NewSlowLog(out, *slowlogThreshold)
	}
	var rec *flight.Recorder
	if *flightOn {
		var err error
		rec, err = flight.New(flight.Config{
			SampleRate: *flightSample,
			// The "slow" cut-off is shared with the slow-query log: one
			// definition of slow across the whole observability stack.
			SlowThreshold: *slowlogThreshold,
			Dir:           *flightDir,
			SLO: flight.SLOConfig{
				AvailabilityTarget: *sloTarget,
				LatencyThreshold:   *sloLatency,
			},
			Metrics: obs.Default,
		})
		if err != nil {
			log.Fatalf("gatewayd: flight recorder: %v", err)
		}
		defer rec.Close()
		h.Flight = rec
		rec.SLO().ExportTo(obs.Default)
	}
	obs.RegisterRuntimeMetrics(obs.Default)
	obs.RegisterBuildInfo(obs.Default)
	var app *gateway.App
	var engineDB *sqldb.Database
	if *cgiProg != "" {
		h.CGIProgram = *cgiProg
		h.CGIEnv = []string{
			"DB2WWW_MACRO_DIR=" + *macros,
			"DB2WWW_DATABASE=" + *database,
			"DB2WWW_DATASET=" + *dataset,
		}
		if *txn == "single" {
			h.CGIEnv = append(h.CGIEnv, "DB2WWW_TXN=single")
		}
		if *qcacheOn {
			// Each CGI subprocess gets its own cache; with one request per
			// process it never hits, which is exactly the process-model cost
			// the in-process mode exists to escape. Pass the knobs anyway so
			// the configuration is honest about what was asked for.
			h.CGIEnv = append(h.CGIEnv,
				"DB2WWW_QCACHE=1",
				"DB2WWW_QCACHE_BYTES="+strconv.FormatInt(*qcacheBytes, 10),
				"DB2WWW_QCACHE_TTL="+qcacheTTL.String(),
			)
		}
	} else {
		db := sqldb.NewDatabase(*database)
		if *load != "" {
			if err := sqldb.RestoreFromFile(db, *load); err != nil {
				log.Fatalf("restoring %s: %v", *load, err)
			}
		} else if err := workload.Load(db, *dataset); err != nil {
			log.Fatalf("loading dataset: %v", err)
		}
		sqldriver.Register(*database, db)
		engineDB = db
		if *vacuumInterval > 0 {
			go func() {
				for range time.Tick(*vacuumInterval) {
					db.Vacuum()
				}
			}()
		}
		if *save != "" {
			saveOnSignal(db, *save)
		}
		engine := &core.Engine{
			DB:       qcache.Wrap(gateway.NewSQLProvider(), qc),
			Commands: core.NewCommandRegistry(),
			MaxRows:  *maxRows,
		}
		if *txn == "single" {
			engine.Txn = core.TxnSingle
		}
		app = &gateway.App{MacroDir: *macros, Engine: engine, CacheMacros: *cache}
		h.App = app
	}
	// Lint preflight: analyze the whole macro corpus before accepting a
	// single request, so a broken or injectable macro is a deploy-time
	// failure instead of a runtime one. The same linter then re-checks
	// each macro as it is (re)loaded, catching files edited after boot.
	var preFiles, preErrs, preWarns int
	switch *lintMode {
	case "off":
	case "warn", "strict":
		macrolint.RegisterMetrics()
		linter := macrolint.New()
		if engineDB != nil {
			// In-process mode lints against the live catalog: a macro that
			// names a table or column the engine does not have is a
			// deploy-time error, not a runtime 42703.
			linter.Schema = sqlsema.FromDatabase(engineDB)
		}
		files, diags, err := linter.LintDir(*macros)
		if err != nil {
			log.Fatalf("gatewayd: lint preflight of %s: %v", *macros, err)
		}
		macrolint.Record(diags)
		for _, d := range diags {
			log.Printf("gatewayd: lint: %s", d)
		}
		errs, warns, _ := macrolint.Counts(diags)
		preFiles, preErrs, preWarns = len(files), errs, warns
		fmt.Printf("gatewayd: lint preflight: %d macro(s), %d error(s), %d warning(s)\n",
			preFiles, preErrs, preWarns)
		if *lintMode == "strict" && preErrs > 0 {
			log.Fatalf("gatewayd: -lint strict: refusing to serve %s with %d error-severity finding(s)",
				*macros, preErrs)
		}
		if app != nil {
			app.Lint = linter
			app.LintStrict = *lintMode == "strict"
		}
	default:
		log.Fatalf("gatewayd: -lint wants off, warn, or strict, got %q", *lintMode)
	}
	if *auth != "" {
		user, pass, ok := strings.Cut(*auth, ":")
		if !ok {
			log.Fatal("-auth wants user:password")
		}
		h.Authenticate = gateway.BasicAuthUsers(map[string]string{user: pass})
	}

	// The access-log middleware always wraps the handler so /server-status
	// is available; -accesslog additionally writes the CLF lines to disk.
	var logOut io.Writer
	if *logPath != "" {
		f, err := os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("opening access log: %v", err)
		}
		defer f.Close()
		logOut = f
		fmt.Printf("gatewayd: access log at %s, stats at /server-status\n", *logPath)
	}
	al := gateway.NewAccessLog(h, logOut)
	switch *logFmt {
	case "clf", "json":
		al.Format = *logFmt
	default:
		log.Fatalf("gatewayd: -access-log-format wants clf or json, got %q", *logFmt)
	}
	var root http.Handler = al
	al.AddStatusSection("Build info", obs.BuildKV)
	if rec != nil {
		al.Handle("/debug/flight", rec.Handler())
		al.AddStatusSection("SLO burn rates", rec.SLO().StatusRows)
	}
	if ring != nil {
		al.AddStatusSection("Recent traces", ring.StatusRows)
	}
	if app != nil {
		al.AddStatusSection("Macro cache", func() [][2]string {
			hits, misses := app.MacroCacheStats()
			return [][2]string{
				{"Hits", strconv.FormatInt(hits, 10)},
				{"Misses", strconv.FormatInt(misses, 10)},
			}
		})
	}
	if *lintMode != "off" {
		mode := *lintMode
		schemaTables := 0
		if engineDB != nil {
			schemaTables = len(engineDB.SchemaSnapshot())
		}
		al.AddStatusSection("Macro lint", func() [][2]string {
			rows := [][2]string{
				{"Mode", mode},
				{"Schema tables", strconv.Itoa(schemaTables)},
				{"Preflight macros", strconv.Itoa(preFiles)},
				{"Preflight errors", strconv.Itoa(preErrs)},
				{"Preflight warnings", strconv.Itoa(preWarns)},
			}
			if app != nil {
				loads, errs, warns, infos, rejected := app.LintStats()
				rows = append(rows,
					[2]string{"Loads linted", strconv.FormatInt(loads, 10)},
					[2]string{"Load errors", strconv.FormatInt(errs, 10)},
					[2]string{"Load warnings", strconv.FormatInt(warns, 10)},
					[2]string{"Load infos", strconv.FormatInt(infos, 10)},
					[2]string{"Loads refused", strconv.FormatInt(rejected, 10)},
				)
			}
			return rows
		})
	}
	if engineDB != nil {
		al.AddStatusSection("Transactions", func() [][2]string {
			st := engineDB.TxnStats()
			return [][2]string{
				{"Active snapshots", strconv.Itoa(st.ActiveSnapshots)},
				{"Oldest snapshot", strconv.FormatUint(st.OldestSnapshot, 10)},
				{"Oldest snapshot age", st.OldestSnapshotAge.String()},
				{"Commit sequence", strconv.FormatUint(st.CommitSeq, 10)},
				{"Commits", strconv.FormatUint(st.Commits, 10)},
				{"Rollbacks", strconv.FormatUint(st.Rollbacks, 10)},
				{"Conflicts", strconv.FormatUint(st.Conflicts, 10)},
				{"Conflict retries", strconv.FormatUint(st.ConflictRetries, 10)},
				{"Vacuumed versions", strconv.FormatUint(st.VacuumedRows, 10)},
				{"Vacuum sweeps", strconv.FormatUint(st.VacuumSweeps, 10)},
			}
		})
		al.AddStatusSection("Statements", func() [][2]string {
			top := engineDB.StatementStats().Top(10)
			rows := make([][2]string, 0, len(top)+1)
			rows = append(rows, [2]string{"Tracked digests",
				strconv.Itoa(engineDB.StatementStats().Len())})
			for _, st := range top {
				rows = append(rows, [2]string{
					st.Digest,
					fmt.Sprintf("calls=%d p99=%dµs rows=%d hits=%d retries=%d  %s",
						st.Calls, st.P99Micros, st.Rows, st.CacheHits,
						st.ConflictRetries, obs.TruncateSQL(st.Statement, 120)),
				})
			}
			return rows
		})
		al.AddStatusSection("Planner", func() [][2]string {
			st := engineDB.PlanCacheStats()
			return [][2]string{
				{"Cached plans", fmt.Sprintf("%d / %d", st.Size, st.Cap)},
				{"Hits", strconv.FormatUint(st.Hits, 10)},
				{"Misses", strconv.FormatUint(st.Misses, 10)},
				{"Bypasses", strconv.FormatUint(st.Bypasses, 10)},
				{"Invalidations", strconv.FormatUint(st.Invalidations, 10)},
			}
		})
		al.AddStatusSection("Storage", func() [][2]string {
			var rows [][2]string
			for _, ts := range engineDB.TableStatsSnapshot() {
				rows = append(rows, [2]string{
					ts.Name,
					fmt.Sprintf("rows=%d versions=%d max_chain=%d seq=%d idx=%d read=%d ins=%d upd=%d del=%d retries=%d",
						ts.Rows, ts.Versions, ts.MaxChain, ts.SeqScans,
						ts.IndexScans, ts.RowsRead, ts.RowsInserted,
						ts.RowsUpdated, ts.RowsDeleted, ts.ConflictRetries),
				})
			}
			return rows
		})
		al.Handle("/debug/statements", gateway.StatementsHandler(engineDB))
		sqldb.RegisterMetrics(engineDB)
	}
	if qc != nil {
		al.AddStatusSection("Query cache", func() [][2]string {
			st := qc.Stats()
			return [][2]string{
				{"Hits", strconv.FormatInt(st.Hits, 10)},
				{"Misses", strconv.FormatInt(st.Misses, 10)},
				{"Hit ratio", fmt.Sprintf("%.3f", st.HitRatio())},
				{"Deduplicated", strconv.FormatInt(st.Dedups, 10)},
				{"Stores", strconv.FormatInt(st.Stores, 10)},
				{"Evictions", strconv.FormatInt(st.Evictions, 10)},
				{"Invalidations", strconv.FormatInt(st.Invalidations, 10)},
				{"Expirations", strconv.FormatInt(st.Expirations, 10)},
				{"Bypasses", strconv.FormatInt(st.Bypasses, 10)},
				{"Uncacheable", strconv.FormatInt(st.Uncacheable, 10)},
				{"Entries", strconv.Itoa(qc.Len())},
				{"Bytes", strconv.FormatInt(qc.Bytes(), 10)},
			}
		})
	}

	// History: the embedded time-series self-scraping the same registry
	// /metrics exposes, with the alert engine on top. Critical firings
	// trigger the flight recorder's anomaly pprof capture — the alert says
	// when it got bad, the profile says what the process was doing.
	var hist *history.Store
	if *historyOn {
		rules := history.DefaultRules()
		if *alertRules != "" {
			src, err := os.ReadFile(*alertRules)
			if err != nil {
				log.Fatalf("gatewayd: reading -alert-rules: %v", err)
			}
			rules, err = history.ParseRules(string(src))
			if err != nil {
				log.Fatalf("gatewayd: parsing -alert-rules %s: %v", *alertRules, err)
			}
		}
		hist = history.New(history.Config{
			Registry:  obs.Default,
			Interval:  *historyInterval,
			Retention: *historyRetention,
			Rules:     rules,
			OnAlert: func(r history.Rule, v float64) {
				log.Printf("gatewayd: alert firing: %s (value %.4g)", r.String(), v)
				if r.Severity == history.SeverityCritical {
					rec.CaptureAnomaly("alert:" + r.Name)
				}
			},
		})
		hist.Start()
		defer hist.Close()
		al.Handle("/debug/history", hist.Handler())
		al.Handle("/debug/dash", hist.Dashboard())
		al.AddStatusSection("History", hist.StatusRows)
	}

	// Liveness and readiness: /healthz answers as long as the process
	// serves; /readyz runs the registered checks with per-check detail.
	health := gateway.NewHealth()
	if engineDB != nil {
		health.AddCheck("db-open", func() error {
			if len(engineDB.SchemaSnapshot()) == 0 {
				return errors.New("no tables loaded")
			}
			return nil
		})
	}
	if *lintMode != "off" {
		health.AddCheck("lint-preflight", func() error {
			if preErrs > 0 {
				return fmt.Errorf("%d lint error(s) in preflight", preErrs)
			}
			return nil
		})
	}
	if hist != nil {
		health.AddCheck("no-critical-alert", func() error {
			if hist.CriticalFiring() {
				return errors.New("critical alert rule firing")
			}
			return nil
		})
	}
	al.Handle("/healthz", health.Liveness())
	al.Handle("/readyz", health.Readiness())

	if *pprofAddr != "" {
		// The pprof import registers on http.DefaultServeMux, which the
		// main listener never serves — profiling stays on its own address.
		go func() {
			log.Printf("gatewayd: pprof at http://%s/debug/pprof/", *pprofAddr)
			log.Fatal(http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	fmt.Printf("gatewayd: serving macros from %s on %s\n", *macros, *addr)
	fmt.Printf("gatewayd: metrics at /metrics, status at /server-status\n")
	if rec != nil {
		fmt.Printf("gatewayd: flight records at /debug/flight (sample %g, slow >= %s)\n",
			*flightSample, rec.SlowThreshold())
	}
	if hist != nil {
		fmt.Printf("gatewayd: history at /debug/history, dashboard at /debug/dash (scrape %s, retain %s)\n",
			hist.Interval(), hist.Retention())
	}
	fmt.Printf("gatewayd: health at /healthz, readiness at /readyz\n")
	fmt.Printf("gatewayd: try http://localhost%s/cgi-bin/db2www/urlquery.d2w/input\n",
		ensureColon(*addr))
	log.Fatal(http.ListenAndServe(*addr, root))
}

// saveOnSignal dumps the database to path when the process receives
// SIGINT or SIGTERM, then exits — a poor man's durability story for a
// demo server (the paper's deployments delegated durability to DB2).
func saveOnSignal(db *sqldb.Database, path string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Printf("\ngatewayd: %v — dumping database to %s\n", sig, path)
		if err := db.DumpToFile(path); err != nil {
			log.Printf("gatewayd: dump failed: %v", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()
}

func ensureColon(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return addr
	}
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[i:]
	}
	return ":" + addr
}
