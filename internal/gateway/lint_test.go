package gateway

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"db2www/internal/core"
	"db2www/internal/macrolint"
	"db2www/internal/obs"
	"db2www/internal/sqldb"
	"db2www/internal/sqlsema"
	"db2www/internal/webclient"
)

// taintedMacro interpolates a form input into SQL structurally —
// outside any quoted literal, where the plan cache's bind-parameter
// extraction cannot neutralize it — an error-severity taint finding.
const taintedMacro = `%define DATABASE = "CELDIAL"
%SQL{SELECT url FROM urldb WHERE title LIKE 'x%' ORDER BY $(Q)%}
%HTML_INPUT{<FORM ACTION="x"><INPUT NAME="Q"></FORM>%}
%HTML_REPORT{%EXEC_SQL%}
`

func newLintStack(t *testing.T, strict bool) (*Handler, *App) {
	t.Helper()
	macroDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(macroDir, "tainted.d2w"), []byte(taintedMacro), 0o644); err != nil {
		t.Fatal(err)
	}
	app := &App{
		MacroDir:    macroDir,
		Engine:      &core.Engine{},
		CacheMacros: true,
		Lint:        macrolint.New(),
		LintStrict:  strict,
	}
	return &Handler{App: app}, app
}

// lintSince returns what lint-on-load has counted into the registry since
// the call: loads linted, loads refused and error-severity findings.
func lintSince() func() (loads, refused, errs int64) {
	l0, r0, e0 := lintCounts()
	return func() (int64, int64, int64) {
		l, r, e := lintCounts()
		return l - l0, r - r0, e - e0
	}
}

func lintCounts() (loads, refused, errs int64) {
	for series, v := range obs.Default.Snapshot() {
		if strings.HasPrefix(series, "db2www_macrolint_findings_total{") && strings.Contains(series, `severity="error"`) {
			errs += int64(v)
		}
	}
	return mLintLoads.Value(), mLintRefused.Value(), errs
}

func TestLintStrictRefusesTaintedMacro(t *testing.T) {
	h, _ := newLintStack(t, true)
	counts := lintSince()
	c := &webclient.Client{Handler: h}
	page, err := c.Get("http://server/cgi-bin/db2www/tainted.d2w/input")
	if err != nil {
		t.Fatal(err)
	}
	if page.Status != 500 {
		t.Fatalf("status = %d, want 500; body: %s", page.Status, page.Body)
	}
	if !strings.Contains(page.Body, "refused by lint") {
		t.Fatalf("body does not name the lint refusal:\n%s", page.Body)
	}
	if loads, rejected, errs := counts(); loads != 1 || errs == 0 || rejected != 1 {
		t.Fatalf("lint counted loads %d, errors %d, rejected %d", loads, errs, rejected)
	}
}

func TestLintWarnModeStillServes(t *testing.T) {
	h, _ := newLintStack(t, false)
	counts := lintSince()
	c := &webclient.Client{Handler: h}
	page, err := c.Get("http://server/cgi-bin/db2www/tainted.d2w/input")
	if err != nil {
		t.Fatal(err)
	}
	if page.Status != 200 {
		t.Fatalf("status = %d, body: %s", page.Status, page.Body)
	}
	if loads, rejected, errs := counts(); loads != 1 || errs == 0 || rejected != 0 {
		t.Fatalf("lint counted loads %d, errors %d, rejected %d", loads, errs, rejected)
	}
}

// TestLintOnLoadOncePerCacheMiss: a cached macro is not re-linted, so
// lint-on-load costs nothing on the hot path.
func TestLintOnLoadOncePerCacheMiss(t *testing.T) {
	h, _ := newLintStack(t, false)
	counts := lintSince()
	c := &webclient.Client{Handler: h}
	for i := 0; i < 5; i++ {
		if _, err := c.Get("http://server/cgi-bin/db2www/tainted.d2w/input"); err != nil {
			t.Fatal(err)
		}
	}
	if loads, _, _ := counts(); loads != 1 {
		t.Fatalf("linted %d loads, want 1 (cache misses only)", loads)
	}
}

// TestLintStrictRefusesSchemaMismatch: with the live catalog wired into
// the linter, a macro that names a column the engine does not have is
// refused under strict mode — the gatewayd -lint strict boot behavior,
// exercised at the lint-on-load layer.
func TestLintStrictRefusesSchemaMismatch(t *testing.T) {
	db := sqldb.NewDatabase("CELDIAL")
	sess := sqldb.NewSession(db)
	defer sess.Close()
	if _, err := sess.Exec("CREATE TABLE urldb (url VARCHAR(255) NOT NULL PRIMARY KEY, title VARCHAR(255))"); err != nil {
		t.Fatal(err)
	}
	const mismatched = `%define DATABASE = "CELDIAL"
%SQL{SELECT nosuchcol FROM urldb%}
%HTML_REPORT{%EXEC_SQL%}
`
	macroDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(macroDir, "mismatch.d2w"), []byte(mismatched), 0o644); err != nil {
		t.Fatal(err)
	}
	linter := macrolint.New()
	linter.Schema = sqlsema.FromDatabase(db)
	app := &App{
		MacroDir:    macroDir,
		Engine:      &core.Engine{},
		CacheMacros: true,
		Lint:        linter,
		LintStrict:  true,
	}
	counts := lintSince()
	c := &webclient.Client{Handler: &Handler{App: app}}
	page, err := c.Get("http://server/cgi-bin/db2www/mismatch.d2w/report")
	if err != nil {
		t.Fatal(err)
	}
	if page.Status != 500 || !strings.Contains(page.Body, "refused by lint") {
		t.Fatalf("status = %d, body:\n%s", page.Status, page.Body)
	}
	if _, rejected, errs := counts(); errs == 0 || rejected != 1 {
		t.Fatalf("lint counted errors %d, rejected %d", errs, rejected)
	}
}

// TestLintSeesRunTimeDDL: the linter holds the server's engine, not a copy
// of its catalog taken at boot, so under -lint strict a macro written
// after a run-time CREATE TABLE is checked against the table as created —
// served when it names the table's column, refused at load (not failed at
// execution with a 42703) once the table is dropped and created without
// it.
func TestLintSeesRunTimeDDL(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Macros = t.TempDir()
	cfg.Dataset = "urldb:20:1"
	cfg.Lint = "strict"
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess := sqldb.NewSession(srv.DB)
	defer sess.Close()
	c := &webclient.Client{Handler: srv.Handler()}
	status := func() string {
		t.Helper()
		page, err := c.Get("http://server/server-status")
		if err != nil {
			t.Fatal(err)
		}
		return page.Body
	}
	const urldb, ratings = `<LI>db2www_sqldb_table_live_rows{table="urldb"}: 20` + "\n",
		`<LI>db2www_sqldb_table_live_rows{table="ratings"}: 0` + "\n"
	if body := status(); !strings.Contains(body, urldb) {
		t.Fatalf("/server-status at boot lacks %q:\n%s", urldb, body)
	}

	for _, stmt := range []string{"CREATE TABLE ratings (url VARCHAR, rating INTEGER DEFAULT 5)",
		"INSERT INTO ratings (url) VALUES ('a'), ('b'), ('c')"} {
		if _, err := sess.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	macro := filepath.Join(cfg.Macros, "rating.d2w")
	const src = `%define DATABASE = "CELDIAL"
%SQL{SELECT url, rating FROM ratings%}
%HTML_REPORT{%EXEC_SQL%}
`
	if err := os.WriteFile(macro, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	page, err := c.Get("http://server/cgi-bin/db2www/rating.d2w/report")
	if err != nil {
		t.Fatal(err)
	}
	if page.Status != 200 || strings.Count(page.Body, "<TD>5</TD>") != 3 {
		t.Fatalf("a macro selecting a table created at run time: status %d, want 200 with 3 rows of rating 5:\n%s",
			page.Status, page.Body)
	}

	for _, stmt := range []string{"DROP TABLE ratings", "CREATE TABLE ratings (url VARCHAR, stars INTEGER)"} {
		if _, err := sess.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(macro, []byte(src+"\n"), 0o644); err != nil { // a new size: a parsed-macro cache miss
		t.Fatal(err)
	}
	page, err = c.Get("http://server/cgi-bin/db2www/rating.d2w/report")
	if err != nil {
		t.Fatal(err)
	}
	if page.Status != 500 || !strings.Contains(page.Body, "refused by lint") ||
		!strings.Contains(page.Body, `column "rating" does not exist`) || !strings.Contains(page.Body, "[schema]") {
		t.Fatalf("a macro selecting a dropped column: status %d, want the [schema] finding at load:\n%s",
			page.Status, page.Body)
	}
	if body := status(); !strings.Contains(body[strings.Index(body, "<H2>Storage</H2>"):], ratings) {
		t.Errorf("the Storage section of /server-status after CREATE TABLE lacks %q:\n%s", ratings, body)
	}
}

// TestLintConcurrentLoads: concurrent first-requests must lint without
// races (run under -race in CI).
func TestLintConcurrentLoads(t *testing.T) {
	h, _ := newLintStack(t, true)
	counts := lintSince()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &webclient.Client{Handler: h}
			page, err := c.Get("http://server/cgi-bin/db2www/tainted.d2w/input")
			if err != nil {
				t.Error(err)
				return
			}
			if page.Status != 500 {
				t.Errorf("status = %d", page.Status)
			}
		}()
	}
	wg.Wait()
	if loads, rejected, _ := counts(); loads == 0 || loads != rejected {
		t.Fatalf("lint counted loads %d, rejected %d", loads, rejected)
	}
}
