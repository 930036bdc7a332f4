// Package experiments holds what the experiments of DESIGN.md's
// per-experiment index share and the overhead gate. Whether a figure
// or worked example of the paper is reproduced (E2–E11) is asserted by
// this package's tests, on values; what a component costs is a
// Benchmark* of the repository root's bench_test.go, which builds on the
// Stack, URLQueryFlow, RenderFigure2 and Restyles defined here; what the
// server costs is benchmark/. The gate (RunA7) bounds what the always-on
// request record may cost a request and runs at full scale as
// BenchmarkA7_RequestRecord.
package experiments

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"

	"db2www/internal/core"
	"db2www/internal/gateway"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/webclient"
	"db2www/internal/workload"
)

// Stack is the full serving stack for one experiment: a seeded database
// registered under DBName, a temporary macro directory holding the
// Appendix A application, and the engine behind the CGI application and
// the HTTP handler.
type Stack struct {
	DBName   string
	MacroDir string
	Handler  *gateway.Handler
	App      *gateway.App
}

// StackConfig controls stack construction.
type StackConfig struct {
	DBName      string // default CELDIAL
	Rows        int    // urldb rows, default 500
	Seed        int64  // default 1
	CacheMacros bool
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

	dir, err := os.MkdirTemp("", "db2www-macros-")
	if err != nil {
		return nil, err
	}
	src, err := os.ReadFile(filepath.Join(corpusMacros(), "urlquery.d2w"))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "urlquery.d2w"), src, 0o644); err != nil {
		return nil, err
	}
	st := &Stack{DBName: cfg.DBName, MacroDir: dir}
	st.App = &gateway.App{
		MacroDir:    dir,
		Engine:      &core.Engine{DB: gateway.NewSQLProvider()},
		CacheMacros: cfg.CacheMacros,
	}
	st.Handler = &gateway.Handler{App: st.App}
	return st, nil
}

// GatewaydConfig is cmd/gatewayd's flag defaults with the macro directory
// and the urldb size an experiment asks for: gateway.NewServer over it is
// the server the binary builds from the same command line.
func GatewaydConfig(macros string, rows int, seed int64) gateway.ServerConfig {
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

// Close unregisters the database and removes the macro directory.
func (s *Stack) Close() {
	sqldriver.Unregister(s.DBName)
	_ = os.RemoveAll(s.MacroDir)
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
// needed by the E4 subprocess flow (BenchmarkE4_Figure4_CGIFlows/Subprocess,
// TestE4SubprocessFlow).
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
