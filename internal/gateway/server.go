package gateway

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"db2www/internal/core"
	"db2www/internal/flight"
	"db2www/internal/macrolint"
	"db2www/internal/obs"
	"db2www/internal/qcache"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/sqlsema"
	"db2www/internal/workload"
)

// ServerConfig is gatewayd's command line: one field per flag, named in
// the field's comment. What used to be a flag and never was set is a
// constant below.
type ServerConfig struct {
	Addr     string // -addr (the banner names it; the caller listens)
	Macros   string // -macros
	DocRoot  string // -docroot
	Database string // -database
	Dataset  string // -dataset
	Txn      string // -txn: auto or single
	MaxRows  int    // -maxrows
	CGI      string // -cgi
	Lint     string // -lint: off, warn or strict
	Auth     string // -auth: user:password
	Load     string // -load
	Save     string // -save (the caller decides when, and dumps Server.DB)

	AccessLog       string // -accesslog
	AccessLogFormat string // -access-log-format: clf or json

	QCacheBytes int64 // -qcache-bytes: the query cache's budget, 0 for no cache

	FlightDir    string  // -flight-dir
	FlightSample float64 // -flight-sample

	SlowThreshold time.Duration // -slow-threshold
}

// DefaultServerConfig is gatewayd's flag defaults, the one list of them:
// cmd/gatewayd declares its flags over these values and in-process
// callers start from them.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Addr:            ":8080",
		Macros:          "./macros",
		Database:        "CELDIAL",
		Dataset:         "urldb",
		Txn:             "auto",
		Lint:            "warn",
		AccessLogFormat: "clf",
		QCacheBytes:     64 << 20,
		FlightSample:    0.01,
		SlowThreshold:   200 * time.Millisecond,
	}
}

// What every gatewayd runs with. Each was a flag (-trace-ring,
// -slo-target, -slo-latency, -vacuum-interval, and the -flight and -cache
// switches, now always on) that nothing set to another value.
const (
	traceRingSize  = 64
	sloTarget      = 0.999
	sloLatency     = 250 * time.Millisecond
	vacuumInterval = 5 * time.Second
)

// validate rejects a configuration that would otherwise be served as
// something else than what was asked for.
func (c ServerConfig) validate() error {
	switch c.Txn {
	case "auto", "single":
	default:
		return fmt.Errorf("-txn wants auto or single, got %q", c.Txn)
	}
	switch c.Lint {
	case "off", "warn", "strict":
	default:
		return fmt.Errorf("-lint wants off, warn, or strict, got %q", c.Lint)
	}
	switch c.AccessLogFormat {
	case "clf", "json":
	default:
		return fmt.Errorf("-access-log-format wants clf or json, got %q", c.AccessLogFormat)
	}
	if c.Auth != "" && !strings.Contains(c.Auth, ":") {
		return errors.New("-auth wants user:password")
	}
	// Under -cgi every request's subprocess loads its own database: there
	// is none in this process to restore into or to dump (nor one whose
	// results to cache: none is built).
	if c.CGI != "" && (c.Load != "" || c.Save != "") {
		return fmt.Errorf("-load and -save want the in-process database, got -cgi %q", c.CGI)
	}
	return nil
}

// Server is the Web server of the paper's Figure 1 assembled: database,
// engine, CGI application, request handler, the sinks a finished
// request's record goes to, and every status and debug endpoint.
// NewServer is the only place the tiers meet; Handler is what a listener
// serves and Close undoes everything NewServer started.
type Server struct {
	// DB is the in-process database; nil under -cgi.
	DB *sqldb.Database
	// QCache is the query-result cache in front of DB; nil under -cgi and
	// with -qcache-bytes 0.
	QCache *qcache.Cache
	// Traces and Flight are the request-record sinks, for callers that
	// read them back in-process.
	Traces *obs.Ring
	Flight *flight.Recorder

	cfg  ServerConfig
	app  *App // nil under -cgi
	root *AccessLog

	// What the lint preflight found, for the banner and /readyz.
	preFiles, preErrs, preWarns int

	closers   []func() error // run last-first by Close
	closeOnce sync.Once
}

// processMetrics registers the series that describe the process, not a
// server, once however many servers a process builds.
var processMetrics sync.Once

// NewServer builds what gatewayd serves. On error nothing is left
// running or registered.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, Traces: obs.NewRing(traceRingSize)}
	if err := s.assemble(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// assemble is NewServer's body, in gatewayd's start-up order; whatever it
// starts or opens it hands to onClose.
func (s *Server) assemble() (err error) {
	cfg := s.cfg
	h := &Handler{DocRoot: cfg.DocRoot, TraceRing: s.Traces}
	s.Flight, err = flight.New(flight.Config{
		SampleRate:    cfg.FlightSample,
		SlowThreshold: cfg.SlowThreshold,
		Dir:           cfg.FlightDir,
		SLO:           flight.SLOConfig{AvailabilityTarget: sloTarget, LatencyThreshold: sloLatency},
		Metrics:       obs.Default,
	})
	if err != nil {
		return fmt.Errorf("flight recorder: %w", err)
	}
	s.onClose(s.Flight.Close)
	h.Flight = s.Flight
	s.Flight.SLO().ExportTo(obs.Default)
	processMetrics.Do(func() {
		obs.RegisterRuntimeMetrics(obs.Default)
		obs.RegisterBuildInfo(obs.Default)
	})

	if cfg.CGI != "" {
		h.CGIProgram = cfg.CGI
		h.CGIEnv = cfg.cgiEnv()
	} else {
		if err := s.openDatabase(); err != nil {
			return err
		}
		if cfg.QCacheBytes > 0 {
			s.QCache = qcache.New(cfg.QCacheBytes)
		}
		engine := &core.Engine{
			DB:      qcache.Wrap(NewSQLProvider(), s.QCache),
			MaxRows: cfg.MaxRows,
		}
		if cfg.Txn == "single" {
			engine.Txn = core.TxnSingle
		}
		s.app = &App{MacroDir: cfg.Macros, Engine: engine, CacheMacros: true}
		h.App = s.app
	}
	if err := s.lintPreflight(); err != nil {
		return err
	}
	if user, pass, ok := strings.Cut(cfg.Auth, ":"); ok {
		h.Authenticate = BasicAuthUsers(map[string]string{user: pass})
	}

	// The access-log middleware always wraps the handler so /server-status
	// is available; -accesslog additionally writes the lines to disk.
	var logOut io.Writer
	if cfg.AccessLog != "" {
		if logOut, err = s.openLog(cfg.AccessLog); err != nil {
			return fmt.Errorf("opening access log: %w", err)
		}
	}
	al := NewAccessLog(h, logOut)
	al.Format = cfg.AccessLogFormat
	al.Traces = s.Traces
	s.root = al
	al.Handle("/debug/flight", s.Flight.Handler())
	if app := s.app; app != nil {
		hits := obs.Default.Gauge("db2www_macro_cache_hits", "macro loads served from the parsed-macro cache")
		misses := obs.Default.Gauge("db2www_macro_cache_misses", "macro loads read and parsed from disk")
		obs.Default.OnScrape(func() {
			h, m := app.MacroCacheStats()
			hits.Set(h)
			misses.Set(m)
		})
	}
	if db := s.DB; db != nil {
		al.Handle("/debug/statements", StatementsHandler(db))
		sqldb.RegisterMetrics(db)
	}
	if s.QCache != nil {
		qcache.RegisterMetrics(s.QCache)
	}
	health := s.health()
	al.Handle("/healthz", health.Liveness())
	al.Handle("/readyz", health.Readiness())
	return nil
}

// Handler is what gatewayd hands its listener: the access-log middleware
// around the request handler, with every status and debug endpoint
// mounted.
func (s *Server) Handler() http.Handler { return s.root }

// The bounds of gatewayd's listeners (DESIGN.md §6): a client that sends
// half a header, or reads its page at a trickle, is cut off rather than
// holding a goroutine and a file descriptor. writeTimeout exceeds
// defaultCGITimeout, so a slow CGI still gets its 504 out.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
	// maxHeaderBytes is net/http's default, stated: it is the only bound
	// on a GET's query string.
	maxHeaderBytes = http.DefaultMaxHeaderBytes
)

// HTTPServer is the http.Server that serves h on addr with the listener
// bounds: gatewayd's main listener with Handler, and -pprof-addr with
// http.DefaultServeMux (h nil).
func (s *Server) HTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// Close stops the vacuum loop, closes the provider's connections, the
// flight recorder and the log files, and unregisters the database; it
// returns what failed to close. A second Close does nothing.
func (s *Server) Close() (err error) {
	s.closeOnce.Do(func() {
		for i := len(s.closers) - 1; i >= 0; i-- {
			err = errors.Join(err, s.closers[i]())
		}
	})
	return err
}

func (s *Server) onClose(fn func() error) { s.closers = append(s.closers, fn) }

// openLog opens a log file for appending, closed by Close.
func (s *Server) openLog(path string) (io.Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.onClose(f.Close)
	return f, nil
}

// cgiEnv is what a -cgi subprocess is told of the configuration.
func (c ServerConfig) cgiEnv() []string {
	env := []string{
		"DB2WWW_MACRO_DIR=" + c.Macros,
		"DB2WWW_DATABASE=" + c.Database,
		"DB2WWW_DATASET=" + c.Dataset,
	}
	if c.Txn == "single" {
		env = append(env, "DB2WWW_TXN=single")
	}
	if c.MaxRows != 0 {
		env = append(env, "DB2WWW_MAXROWS="+strconv.Itoa(c.MaxRows))
	}
	return env
}

// openDatabase restores or generates the in-process database, registers
// it with the driver and starts its vacuum loop.
func (s *Server) openDatabase() error {
	db := sqldb.NewDatabase(s.cfg.Database)
	if s.cfg.Load != "" {
		if err := sqldb.RestoreFromFile(db, s.cfg.Load); err != nil {
			return fmt.Errorf("restoring %s: %w", s.cfg.Load, err)
		}
	} else if err := workload.Load(db, s.cfg.Dataset); err != nil {
		return fmt.Errorf("loading dataset: %w", err)
	}
	sqldriver.Register(s.cfg.Database, db)
	s.onClose(func() error { sqldriver.Unregister(s.cfg.Database); return nil })
	s.DB = db

	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(vacuumInterval)
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
	s.onClose(func() error { close(quit); <-done; return nil })
	return nil
}

// lintPreflight analyzes the whole macro corpus before a single request
// is accepted, so a broken or injectable macro is a deploy-time failure
// instead of a runtime one. The same linter then re-checks each macro as
// it is (re)loaded, catching files edited after boot.
func (s *Server) lintPreflight() error {
	if s.cfg.Lint == "off" {
		return nil
	}
	macrolint.RegisterMetrics()
	linter := macrolint.New()
	if s.DB != nil {
		// In-process mode lints against the live catalog, read at every
		// lint run: a macro that names a table or column the engine does
		// not have is an error at deploy or load time, not a runtime 42703.
		linter.Schema = sqlsema.FromDatabase(s.DB)
	}
	files, diags, err := linter.LintDir(s.cfg.Macros)
	if err != nil {
		return fmt.Errorf("lint preflight of %s: %w", s.cfg.Macros, err)
	}
	macrolint.Record(diags)
	for _, d := range diags {
		log.Printf("gatewayd: lint: %s", d)
	}
	s.preFiles = len(files)
	s.preErrs, s.preWarns, _ = macrolint.Counts(diags)
	strict := s.cfg.Lint == "strict"
	if strict && s.preErrs > 0 {
		return fmt.Errorf("-lint strict: refusing to serve %s with %d error-severity finding(s)",
			s.cfg.Macros, s.preErrs)
	}
	if s.app != nil {
		s.app.Lint = linter
		s.app.LintStrict = strict
	}
	return nil
}

// health is liveness and readiness: /healthz answers as long as the
// process serves; /readyz runs these checks with per-check detail.
func (s *Server) health() *Health {
	health := NewHealth()
	if s.DB != nil {
		health.AddCheck("db-open", func() error {
			if len(s.DB.SchemaSnapshot()) == 0 {
				return errors.New("no tables loaded")
			}
			return nil
		})
	}
	if s.cfg.Lint != "off" {
		health.AddCheck("lint-preflight", func() error {
			if s.preErrs > 0 {
				return fmt.Errorf("%d lint error(s) in preflight", s.preErrs)
			}
			return nil
		})
	}
	health.AddCheck("no-5xx-burst", s.Flight.Burst5xx)
	return health
}

// WriteBanner prints what gatewayd says once it is ready to serve.
func (s *Server) WriteBanner(w io.Writer) {
	c := s.cfg
	if c.Lint != "off" {
		fmt.Fprintf(w, "gatewayd: lint preflight (-lint %s): %d macro(s), %d error(s), %d warning(s)\n",
			c.Lint, s.preFiles, s.preErrs, s.preWarns)
	}
	if c.AccessLog != "" {
		fmt.Fprintf(w, "gatewayd: access log at %s, stats at /server-status\n", c.AccessLog)
	}
	fmt.Fprintf(w, "gatewayd: serving macros from %s on %s\n", c.Macros, c.Addr)
	fmt.Fprintf(w, "gatewayd: metrics at /metrics, status at /server-status\n")
	fmt.Fprintf(w, "gatewayd: flight records at /debug/flight (sample %g, slow >= %s)\n",
		c.FlightSample, s.Flight.SlowThreshold())
	fmt.Fprintf(w, "gatewayd: health at /healthz, readiness at /readyz\n")
	port := c.Addr
	if i := strings.LastIndexByte(port, ':'); i >= 0 {
		port = port[i:]
	} else {
		port = ":" + port
	}
	fmt.Fprintf(w, "gatewayd: try http://localhost%s/cgi-bin/db2www/urlquery.d2w/input\n", port)
}
