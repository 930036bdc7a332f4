// Package macrolint is the static analyzer for the DB2WWW macro
// language: a registry of composable analyzers over the parsed macro AST
// and the resolved %INCLUDE graph, producing structured diagnostics
// (analyzer ID, severity, file:line:col, message, suggested fix) instead
// of the free-form warning strings the original core.Lint returned.
//
// The paper's substitution mechanism fails in three stereotyped ways —
// undefined variables silently becoming empty strings, definition
// cycles, and form input substituted straight into SQL — and all three
// are statically checkable. macrolint moves them from request time
// (a 500, or worse, an injected query) to analysis time: macrocheck
// runs it in CI, and gatewayd runs it as a startup preflight and on
// every macro load.
//
// See docs/LINTING.md for the analyzer catalog.
package macrolint

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"db2www/internal/core"
	"db2www/internal/obs"
	"db2www/internal/sqlsema"
)

// Analyzer is one registered check. Analyzers with a nil run hook
// (parse, include) are driven by the lint pipeline itself rather than
// over the AST, but still appear in the catalog so they can be enabled,
// disabled, and documented uniformly.
type Analyzer struct {
	ID  string
	Doc string
	run func(p *pass)
}

// catalog is the analyzer registry, in the order analyzers run and are
// documented.
var catalog = []*Analyzer{
	{ID: "parse", Doc: "macro source must parse; parse failures are error findings rather than tool aborts"},
	{ID: "include", Doc: "%INCLUDE targets must exist and the include graph must be acyclic"},
	{ID: "template", Doc: "$(name) references must be terminated; reported with line and column", run: runTemplate},
	{ID: "undefined", Doc: "references that no DEFINE, form input, or system variable binds evaluate to the null string", run: runUndefined},
	{ID: "unused", Doc: "DEFINE variables never referenced (escapes and engine-read names count as uses)", run: runUnused},
	{ID: "cycle", Doc: "definition cycles and self-references fail at dereference time", run: runCycle},
	{ID: "sections", Doc: "cross-section consistency: %EXEC_SQL targets, unexecuted SQL sections, DATABASE, page structure", run: runSections},
	{ID: "taint", Doc: "dataflow from form/URL input through DEFINE chains into SQL without $(@sq:) quoting", run: runTaint},
	{ID: "sqlreport", Doc: "substituted-skeleton SQL must parse and not be transaction control, and %SQL_REPORT column references must match the SELECT list", run: runSQLReport},
	{ID: "schema", Doc: "the engine's own name resolution against the configured schema (Database.Check): the first error a statement would fail with — unknown tables, columns, and indexes; ambiguous column references", run: runSchema},
	{ID: "sqltype", Doc: "expression type checking against declared column types, each operation evaluated by the engine on sample operands, with value classes inferred for $(VAR) slots through %DEFINE chains", run: runSqltype},
	{ID: "sqlperf", Doc: "planner-driven performance lints: predicates no index can serve, leading-wildcard LIKE, joins with no join predicate, SELECT * feeding a report", run: runSqlperf},
}

// Analyzers returns the analyzer catalog in registration order.
func Analyzers() []*Analyzer {
	out := make([]*Analyzer, len(catalog))
	copy(out, catalog)
	return out
}

// IsAnalyzer reports whether id names a registered analyzer.
func IsAnalyzer(id string) bool {
	for _, a := range catalog {
		if a.ID == id {
			return true
		}
	}
	return false
}

// Linter runs the enabled analyzers. The zero value is not usable; call
// New.
type Linter struct {
	// Resolver loads %INCLUDE targets; nil rejects includes (they then
	// surface as parse findings). LintFile installs a directory resolver
	// automatically when none is set.
	Resolver core.IncludeResolver

	// Schema enables the schema-aware analyzers (schema, sqltype,
	// sqlperf): SQL extracted from macros is bound by the engine it holds
	// and type-checked against that engine's catalog as it is when the
	// statement is linted. Nil disables all three — without metadata there is
	// nothing to resolve against. Build one with sqlsema.FromDatabase
	// (the live database: gatewayd preflight and lint-on-load, sqlsh
	// \check) or sqlsema.FromDDL (a scratch database that executed a
	// DDL file: macrocheck -schema).
	Schema *sqlsema.Schema

	enabled map[string]bool
}

// New returns a Linter with every analyzer enabled.
func New() *Linter {
	l := &Linter{enabled: map[string]bool{}}
	for _, a := range catalog {
		l.enabled[a.ID] = true
	}
	return l
}

// Configure restricts the analyzer set: enable and disable are
// comma-separated analyzer ID lists. A non-empty enable list switches to
// allow-list mode (only those run); disable then removes from whatever
// is enabled. Unknown IDs are errors.
func (l *Linter) Configure(enable, disable string) error {
	split := func(s string) ([]string, error) {
		var out []string
		for _, id := range strings.Split(s, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !IsAnalyzer(id) {
				return nil, fmt.Errorf("unknown analyzer %q (run with -analyzers for the catalog)", id)
			}
			out = append(out, id)
		}
		return out, nil
	}
	on, err := split(enable)
	if err != nil {
		return err
	}
	off, err := split(disable)
	if err != nil {
		return err
	}
	if len(on) > 0 {
		for id := range l.enabled {
			l.enabled[id] = false
		}
		for _, id := range on {
			l.enabled[id] = true
		}
	}
	for _, id := range off {
		l.enabled[id] = false
	}
	return nil
}

// Enabled reports whether the analyzer with the given ID will run.
func (l *Linter) Enabled(id string) bool { return l.enabled[id] }

// pass carries one macro's analysis state through the analyzers.
type pass struct {
	l     *Linter
	env   *env
	diags []Diagnostic

	// The shared semantic findings the schema/sqltype/sqlperf analyzers
	// surface (see semsql.go), computed once.
	semaDone  bool
	semaDiags []Diagnostic
}

// report appends a finding, filling in the file.
func (p *pass) report(d Diagnostic) {
	if d.File == "" {
		d.File = p.env.file
	}
	p.diags = append(p.diags, d)
}

// reportAt appends a finding positioned at a template offset.
func (p *pass) reportAt(t *tpl, off int, d Diagnostic) {
	d.Line, d.Col = t.pos(off)
	p.report(d)
}

// LintMacro runs the enabled AST analyzers over an already-parsed macro.
// Findings are attributed to file (m.Name when file is empty).
func (l *Linter) LintMacro(m *core.Macro, file string) []Diagnostic {
	if file == "" {
		file = m.Name
	}
	p := &pass{l: l, env: buildEnv(m, file)}
	for _, a := range catalog {
		if a.run != nil && l.enabled[a.ID] {
			a.run(p)
		}
	}
	sortDiags(p.diags)
	return p.diags
}

// LintSource lints macro source text end to end: one parse, its
// %INCLUDE failures (when a Resolver is configured), and the AST analyzers.
// Findings are attributed to file. Parse failures become "parse" findings
// rather than errors — a lint run over a corpus keeps going.
func (l *Linter) LintSource(file, src string) []Diagnostic {
	var diags []Diagnostic
	report := func(id string, d Diagnostic) {
		if l.enabled[id] {
			d.Analyzer, d.Severity = id, SevError
			diags = append(diags, d)
		}
	}
	resolver := l.Resolver
	if resolver != nil {
		// Each target is read once: one that cannot be read is reported at
		// its first include, and splices nothing wherever it is included.
		sources := map[string]string{}
		resolver = func(name string) (string, error) {
			if src, seen := sources[name]; seen {
				return src, nil
			}
			src, err := l.Resolver(name)
			sources[name] = src
			return src, err
		}
	}
	m, skipped, err := core.ParseLenient(file, src, resolver)
	// With the include analyzer disabled, an include failure is still a
	// failure to parse.
	incID := "include"
	if !l.enabled[incID] {
		incID = "parse"
	}
	// Each include loop is reported once, where the parse first closes it.
	loops := map[string]bool{}
	for _, ie := range skipped {
		d := Diagnostic{File: ie.Macro, Line: ie.Line,
			Message: fmt.Sprintf("%%INCLUDE target %q cannot be read: %v", ie.Target, ie.Err)}
		if ie.Cycle != nil {
			key := canonicalCycle(ie.Cycle[1:])
			if loops[key] {
				continue
			}
			loops[key] = true
			d.Message, d.Fix = fmt.Sprintf("%%INCLUDE cycle: %s", strings.Join(ie.Cycle, " -> ")), "remove one of the includes"
		}
		report(incID, d)
	}
	var ce *core.Error
	switch {
	case len(loops) > 0:
		// A cyclic include graph cannot be parsed meaningfully; the cycle
		// findings stand on their own.
	case errors.As(err, &ce):
		report("parse", Diagnostic{File: cmp.Or(ce.Macro, file), Line: ce.Line, Message: ce.Msg})
	default:
		diags = append(diags, l.LintMacro(m, file)...)
	}
	sortDiags(diags)
	return diags
}

// LintFile reads and lints one macro file. When no Resolver is set,
// %INCLUDE targets resolve relative to the file's directory.
func (l *Linter) LintFile(path string) ([]Diagnostic, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ll := *l
	if ll.Resolver == nil {
		ll.Resolver = DirResolver(filepath.Dir(path))
	}
	return ll.LintSource(path, string(src)), nil
}

// LintDir lints every .d2w file under dir (the gateway's macro-corpus
// preflight). Findings are attributed to dir-relative paths; %INCLUDE
// targets resolve inside dir, exactly as the gateway resolves them.
func (l *Linter) LintDir(dir string) (files []string, diags []Diagnostic, err error) {
	ll := *l
	if ll.Resolver == nil {
		ll.Resolver = DirResolver(dir)
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.EqualFold(filepath.Ext(path), ".d2w") {
			return nil
		}
		rel, relErr := filepath.Rel(dir, path)
		if relErr != nil {
			rel = path
		}
		src, readErr := os.ReadFile(path)
		if readErr != nil {
			return readErr
		}
		files = append(files, rel)
		diags = append(diags, ll.LintSource(filepath.ToSlash(rel), string(src))...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(files)
	sortDiags(diags)
	return files, diags, nil
}

// DirResolver returns an include resolver rooted at dir with the same
// traversal protection as the gateway's macro loader (core.InsideDir).
func DirResolver(dir string) core.IncludeResolver {
	return func(name string) (string, error) {
		_, file, err := core.InsideDir(dir, name)
		if err != nil {
			return "", fmt.Errorf("include %w", err)
		}
		src, err := os.ReadFile(file)
		return string(src), err
	}
}

// Record exports findings to the process metrics registry as
// db2www_macrolint_findings_total{analyzer,severity} — the counter the
// gateway's preflight and lint-on-load paths feed.
func Record(diags []Diagnostic) {
	for _, d := range diags {
		obs.Default.Counter("db2www_macrolint_findings_total",
			"macro lint findings, by analyzer and severity",
			"analyzer", d.Analyzer, "severity", d.Severity.String()).Inc()
	}
}

// RegisterMetrics pre-creates the db2www_macrolint_findings_total series
// for every analyzer × severity pair, so /metrics exposes each analyzer
// at zero before its first finding. The gateway calls this once at boot;
// dashboards and smoke tests can then assert on series presence rather
// than waiting for a defect to occur.
func RegisterMetrics() {
	for _, a := range catalog {
		for _, sev := range []Severity{SevInfo, SevWarn, SevError} {
			obs.Default.Counter("db2www_macrolint_findings_total",
				"macro lint findings, by analyzer and severity",
				"analyzer", a.ID, "severity", sev.String())
		}
	}
}
