// Package experiments implements every experiment of DESIGN.md's
// per-experiment index (E1–E12 reproducing the paper's figures and worked
// examples, plus the A-series ablations). cmd/benchrunner prints their
// rows and series; the repository-root benchmarks reuse their setup
// helpers; and the package's tests run each experiment end to end, making
// this the integration suite across all substrates.
package experiments

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"db2www/internal/core"
	"db2www/internal/gateway"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/webclient"
	"db2www/internal/workload"
)

// Stack is the full serving stack for one experiment: a seeded database,
// a macro directory holding the Appendix A application, the engine, the
// gateway, and a browser-simulator client.
type Stack struct {
	DBName   string
	MacroDir string
	Handler  *gateway.Handler
	App      *gateway.App
	Engine   *core.Engine
	DB       *sqldb.Database

	ownsMacroDir bool
}

// StackConfig controls stack construction.
type StackConfig struct {
	DBName      string // default CELDIAL
	Rows        int    // urldb rows, default 500
	Seed        int64  // default 1
	CacheMacros bool   // default true
	TxnSingle   bool
	MacroDir    string // default: temp dir seeded with urlquery.d2w
}

// NewStack builds a Stack. Call Close when done.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.DBName == "" {
		cfg.DBName = "CELDIAL"
	}
	if cfg.Rows == 0 {
		cfg.Rows = 500
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	db := sqldb.NewDatabase(cfg.DBName)
	if err := workload.URLDB(db, cfg.Rows, cfg.Seed); err != nil {
		return nil, err
	}
	sqldriver.Register(cfg.DBName, db)

	st := &Stack{DBName: cfg.DBName, DB: db}
	if cfg.MacroDir == "" {
		dir, err := os.MkdirTemp("", "db2www-macros-")
		if err != nil {
			return nil, err
		}
		src, err := os.ReadFile(filepath.Join(RepoRoot(), "testdata", "macros", "urlquery.d2w"))
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, "urlquery.d2w"), src, 0o644); err != nil {
			return nil, err
		}
		st.MacroDir = dir
		st.ownsMacroDir = true
	} else {
		st.MacroDir = cfg.MacroDir
	}

	st.Engine = &core.Engine{
		DB:       gateway.NewSQLProvider(),
		Commands: core.NewCommandRegistry(),
	}
	if cfg.TxnSingle {
		st.Engine.Txn = core.TxnSingle
	}
	st.App = &gateway.App{MacroDir: st.MacroDir, Engine: st.Engine, CacheMacros: cfg.CacheMacros}
	st.Handler = &gateway.Handler{App: st.App}
	return st, nil
}

// gatewaydConfig is cmd/gatewayd's flag defaults with the macro directory
// and the urldb size an experiment asks for: gateway.NewServer over it is
// the server the binary builds from the same command line.
func gatewaydConfig(macros string, rows int, seed int64) gateway.ServerConfig {
	cfg := gateway.DefaultServerConfig()
	cfg.Macros = macros
	cfg.Dataset = fmt.Sprintf("urldb:%d:%d", rows, seed)
	return cfg
}

// corpusMacros is testdata/macros, home of the Appendix A application.
func corpusMacros() string { return filepath.Join(RepoRoot(), "testdata", "macros") }

// Client returns a fresh in-process browser for this stack.
func (s *Stack) Client() *webclient.Client { return browser(s.Handler) }

// browser is an in-process browser over any handler.
func browser(h http.Handler) *webclient.Client {
	return &webclient.Client{Handler: h, UserAgent: "db2www-experiments/1.0"}
}

// WriteMacro adds (or replaces) a macro file in the stack's macro dir.
func (s *Stack) WriteMacro(name, src string) error {
	return os.WriteFile(filepath.Join(s.MacroDir, name), []byte(src), 0o644)
}

// Close unregisters the database and removes any owned temp directory.
func (s *Stack) Close() {
	sqldriver.Unregister(s.DBName)
	if s.ownsMacroDir {
		_ = os.RemoveAll(s.MacroDir)
	}
}

// RepoRoot locates the module root by walking up from the working
// directory to the first go.mod.
func RepoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

// BuildDB2WWW compiles cmd/db2www into dir and returns the binary path —
// needed by the E4 subprocess flow.
func BuildDB2WWW(dir string) (string, error) {
	bin := filepath.Join(dir, "db2www")
	cmd := exec.Command("go", "build", "-o", bin, "db2www/cmd/db2www")
	cmd.Dir = RepoRoot()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building db2www: %v\n%s", err, out)
	}
	return bin, nil
}

// --- measurement helpers ---

// Latencies collects per-request durations and reports summary rows.
type Latencies struct {
	ds []time.Duration
}

// Add records one duration.
func (l *Latencies) Add(d time.Duration) { l.ds = append(l.ds, d) }

// N returns the sample count.
func (l *Latencies) N() int { return len(l.ds) }

// Mean returns the arithmetic mean.
func (l *Latencies) Mean() time.Duration {
	if len(l.ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l.ds {
		sum += d
	}
	return sum / time.Duration(len(l.ds))
}

// Percentile returns the p-th percentile (0 < p <= 100).
func (l *Latencies) Percentile(p float64) time.Duration {
	if len(l.ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted))*p/100) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// section prints an underlined experiment heading.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}
