package macrolint

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/obs"
	"db2www/internal/sqldb"
	"db2www/internal/sqlsema"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/lint/golden")

func lintDirPath(t testing.TB) string {
	t.Helper()
	return filepath.Join("..", "..", "testdata", "lint")
}

func appendixaPath(t testing.TB) string {
	t.Helper()
	return filepath.Join("..", "..", "testdata", "appendixa.sql")
}

// newSchemaLinter returns a Linter with every analyzer enabled and the
// Appendix A schema loaded, so the schema-aware analyzers run too.
func newSchemaLinter(t testing.TB) *Linter {
	t.Helper()
	ddl, err := os.ReadFile(appendixaPath(t))
	if err != nil {
		t.Fatal(err)
	}
	schema, err := sqlsema.FromDDL(string(ddl))
	if err != nil {
		t.Fatal(err)
	}
	l := New()
	l.Schema = schema
	return l
}

func macrosDirPath(t testing.TB) string {
	t.Helper()
	return filepath.Join("..", "..", "testdata", "macros")
}

// expectation pins the load-bearing properties of one seeded-defect
// finding: which analyzer fired, how severely, and where.
type expectation struct {
	analyzer string
	severity Severity
	line     int
}

// seededDefects maps every corpus macro to the findings its defects must
// produce. The golden files additionally pin the full rendered output.
var seededDefects = map[string][]expectation{
	"taint_injection.d2w":  {{"taint", SevWarn, 7}},
	"taint_structural.d2w": {{"taint", SevError, 9}},
	"taint_cycle.d2w":      {{"taint", SevWarn, 13}, {"cycle", SevError, 9}}, // ECHO read while BRANCH was on the walk's path
	"cycle.d2w":            {{"cycle", SevError, 6}, {"cycle", SevError, 8}},
	"undefined.d2w":        {{"undefined", SevWarn, 6}, {"unused", SevInfo, 7}},
	"exec_missing.d2w":     {{"sections", SevError, 10}, {"sections", SevWarn, 6}},
	"report_cols.d2w":      {{"sqlreport", SevWarn, 11}, {"sqlreport", SevWarn, 11}},
	"report_ordinals.d2w":  {{"undefined", SevWarn, 12}, {"undefined", SevWarn, 12}}, // $(V0), $(V01)
	"sqlsyntax.d2w":        {{"sqlreport", SevError, 7}},
	"sqlunsupported.d2w":   {{"sqlreport", SevError, 8}}, // || is 0A000
	"unterminated.d2w":     {{"template", SevWarn, 7}},
	"include_missing.d2w":  {{"include", SevError, 5}},
	"include_cycle.d2w":    {{"include", SevError, 5}},
	"exec_unsupported.d2w": {{"parse", SevError, 8}},
	"schema_unknown.d2w": {
		{"schema", SevError, 8},  // unknown column nosuch
		{"schema", SevError, 11}, // unknown table nosuchtable
		{"schema", SevError, 14}, // ambiguous custid
		{"schema", SevError, 17}, // unknown function UPPER
	},
	"type_mismatch.d2w": {
		{"sqltype", SevError, 10}, // custid = 'abc'
		{"sqltype", SevError, 13}, // city = NULL never matches
		{"sqlperf", SevWarn, 13},  // = NULL cannot use an index either
		{"sqltype", SevError, 16}, // always-text $(SORTKEY) vs INTEGER custid
		{"sqltype", SevError, 19}, // 'not-a-number' into INTEGER, NULL into NOT NULL
		{"sqltype", SevError, 22}, // 3 values, 2 target columns
	},
	"perf_seqscan.d2w": {
		{"sqlperf", SevWarn, 8},  // unindexed city filter: sequential scan
		{"sqlperf", SevWarn, 11}, // leading-wildcard LIKE defeats products_name
	},
	"perf_crossjoin.d2w": {
		{"sqlperf", SevWarn, 8},  // no join predicate: cross product
		{"sqlperf", SevInfo, 11}, // SELECT * feeding a report
	},
	"perf_plan.d2w": {
		{"sqlperf", SevWarn, 14}, // a LEFT JOIN pins the plan: customers is scanned
	},
}

func TestSeededDefects(t *testing.T) {
	dir := lintDirPath(t)
	for file, wants := range seededDefects {
		diags, err := newSchemaLinter(t).LintFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, want := range wants {
			found := false
			for _, d := range diags {
				if d.Analyzer == want.analyzer && d.Severity == want.severity && d.Line == want.line {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no %s finding with severity %s at line %d; got:\n%s",
					file, want.analyzer, want.severity, want.line, renderText(diags))
			}
		}
	}
}

func renderText(diags []Diagnostic) string {
	var buf bytes.Buffer
	if err := WriteText(&buf, diags); err != nil {
		panic(err)
	}
	return buf.String()
}

// TestGoldenCorpus pins the full text rendering of every corpus macro.
// Regenerate with: go test ./internal/macrolint -run Golden -update
func TestGoldenCorpus(t *testing.T) {
	dir := lintDirPath(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".d2w") {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			diags, err := newSchemaLinter(t).LintFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			got := renderText(diags)
			goldenPath := filepath.Join(dir, "golden", name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestCleanCorpus asserts zero error-severity findings over the known
// good macros — the analyzers must not false-positive on the paper's own
// examples (indirect-taint warnings on Appendix A are expected and
// deliberate).
func TestCleanCorpus(t *testing.T) {
	files, diags, err := New().LintDir(macrosDirPath(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no macros found")
	}
	for _, d := range diags {
		if d.Severity == SevError {
			t.Errorf("false positive on clean corpus: %s", d)
		}
	}
}

// TestCleanCorpusSchemaAware repeats the no-false-positive check with the
// Appendix A schema loaded: the schema, sqltype, and sqlperf analyzers
// must not produce error findings on the paper's own macros.
func TestCleanCorpusSchemaAware(t *testing.T) {
	files, diags, err := newSchemaLinter(t).LintDir(macrosDirPath(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no macros found")
	}
	for _, d := range diags {
		if d.Severity == SevError {
			t.Errorf("false positive on clean corpus with schema: %s", d)
		}
	}
}

// TestSchemaSourcesAgree: offline ≡ live. A linter built from the schema
// file and one holding a database that executed the same file report the
// same findings, text for text, over the clean and the seeded-defect
// corpus.
func TestSchemaSourcesAgree(t *testing.T) {
	ddl, err := os.ReadFile(appendixaPath(t))
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDatabase("CELDIAL")
	if _, err := sqldb.NewSession(db).ExecScript(string(ddl)); err != nil {
		t.Fatal(err)
	}
	live := New()
	live.Schema = sqlsema.FromDatabase(db)
	for _, dir := range []string{macrosDirPath(t), lintDirPath(t)} {
		_, offline, err := newSchemaLinter(t).LintDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, online, err := live.LintDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderText(online), renderText(offline); got != want || want == "" {
			t.Errorf("%s: findings differ by schema source:\n--- live ---\n%s--- schema file ---\n%s", dir, got, want)
		}
	}
}

func TestConfigure(t *testing.T) {
	l := New()
	if err := l.Configure("taint,cycle", ""); err != nil {
		t.Fatal(err)
	}
	if !l.Enabled("taint") || !l.Enabled("cycle") || l.Enabled("unused") {
		t.Fatal("enable list must switch to allow-list mode")
	}
	if err := l.Configure("", "cycle"); err != nil {
		t.Fatal(err)
	}
	if l.Enabled("cycle") {
		t.Fatal("disable must remove from the enabled set")
	}
	if err := New().Configure("nosuch", ""); err == nil {
		t.Fatal("unknown analyzer must be rejected")
	}
	// A disabled analyzer stays silent.
	l = New()
	if err := l.Configure("", "taint"); err != nil {
		t.Fatal(err)
	}
	diags, err := l.LintFile(filepath.Join(lintDirPath(t), "taint_injection.d2w"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == "taint" {
			t.Fatalf("disabled analyzer reported: %s", d)
		}
	}
}

func TestParseFailureIsFinding(t *testing.T) {
	diags := New().LintSource("broken.d2w", "%HTML_INPUT{oops")
	if len(diags) != 1 || diags[0].Analyzer != "parse" || diags[0].Severity != SevError {
		t.Fatalf("got %v", diags)
	}
	if diags[0].Line == 0 {
		t.Fatal("parse finding must carry the source line")
	}
	// With the include analyzer off, an include cycle is still a failure to
	// parse.
	l := New()
	if err := l.Configure("", "include"); err != nil {
		t.Fatal(err)
	}
	diags, err := l.LintFile(filepath.Join(lintDirPath(t), "include_cycle.d2w"))
	if err != nil || len(diags) != 1 || diags[0].Analyzer != "parse" || !strings.Contains(diags[0].Message, "%INCLUDE cycle") {
		t.Fatalf("include disabled: %v %v", diags, err)
	}
}

func TestJSONFormat(t *testing.T) {
	diags, err := New().LintFile(filepath.Join(lintDirPath(t), "taint_injection.d2w"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) == 0 {
		t.Fatal("no findings decoded")
	}
	first := decoded[0]
	for _, key := range []string{"analyzer", "severity", "file", "message"} {
		if _, ok := first[key]; !ok {
			t.Errorf("missing key %q in %v", key, first)
		}
	}
	// An empty run must encode as [], not null.
	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("empty run = %q", buf.String())
	}
}

func TestSARIFFormat(t *testing.T) {
	diags, err := New().LintFile(filepath.Join(lintDirPath(t), "taint_structural.d2w"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region *struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid SARIF: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("log = %+v", log)
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "macrocheck" || len(run.Tool.Driver.Rules) != len(Analyzers()) {
		t.Fatalf("driver = %+v", run.Tool.Driver)
	}
	foundTaint := false
	for _, r := range run.Results {
		if r.RuleID == "taint" && r.Level == "error" {
			foundTaint = true
			loc := r.Locations[0].PhysicalLocation
			if loc.ArtifactLocation.URI == "" || loc.Region == nil || loc.Region.StartLine != 9 {
				t.Fatalf("taint location = %+v", loc)
			}
		}
	}
	if !foundTaint {
		t.Fatal("no taint error in SARIF results")
	}
}

func TestRecordExportsMetrics(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "taint", Severity: SevError},
		{Analyzer: "taint", Severity: SevError},
		{Analyzer: "unused", Severity: SevInfo},
	}
	c := obs.Default.Counter("db2www_macrolint_findings_total",
		"macro lint findings, by analyzer and severity",
		"analyzer", "taint", "severity", "error")
	before := c.Value()
	Record(diags)
	if got := c.Value() - before; got != 2 {
		t.Fatalf("taint/error delta = %d, want 2", got)
	}
}

func TestLintDirAttribution(t *testing.T) {
	_, diags, err := newSchemaLinter(t).LintDir(lintDirPath(t))
	if err != nil {
		t.Fatal(err)
	}
	if HasErrors(diags) == false {
		t.Fatal("seeded corpus must produce errors")
	}
	for _, d := range diags {
		if filepath.IsAbs(d.File) {
			t.Fatalf("finding attributed to absolute path: %s", d)
		}
	}
}

// TestDynamicRefs covers the nested late-evaluated $(A$(B)) form: the
// outer reference cannot be resolved statically and must not produce
// undefined-variable noise, while the inner reference still counts.
func TestDynamicRefs(t *testing.T) {
	src := `%define{
B = "X"
X = "hello"
%}
%HTML_INPUT{<P>$(A$(B))</P>%}
`
	diags := New().LintSource("dyn.d2w", src)
	for _, d := range diags {
		if d.Analyzer == "undefined" {
			t.Fatalf("dynamic reference produced: %s", d)
		}
	}
	// B is used (inside the dynamic body); X is only reachable
	// dynamically, so the unused analyzer may flag it — but B must not
	// be flagged.
	for _, d := range diags {
		if d.Analyzer == "unused" && strings.Contains(d.Message, `"B"`) {
			t.Fatalf("inner dynamic reference not counted as use: %s", d)
		}
	}
}

func TestUnterminatedPosition(t *testing.T) {
	src := "%HTML_INPUT{line one\nsecond $(broken here\n%}"
	diags := New().LintSource("u.d2w", src)
	for _, d := range diags {
		if d.Analyzer == "template" {
			if d.Line != 2 || d.Col != 8 {
				t.Fatalf("position = %d:%d, want 2:8", d.Line, d.Col)
			}
			return
		}
	}
	t.Fatalf("no template finding in:\n%s", renderText(diags))
}

// Two macros where the linter's old mirror of VarTable inlined SQL the
// engine never runs. driftList: a %LIST skips its null items, so the
// statement is "WHERE url LIKE 'h%'", not "WHERE  AND url LIKE 'h%'".
// driftCond: "name = ? value" is null when a reference in value is, so the
// engine never reads nosuchcol.
const (
	driftList = `%define{
DATABASE = "CELDIAL"
%LIST " AND " W
W = ""
W = "url LIKE 'h%'"
%}
%SQL{
SELECT url FROM urldb WHERE $(W)
%}
%HTML_REPORT{
%EXEC_SQL
%}
`
	driftCond = `%define{
DATABASE = "CELDIAL"
EMPTY = ""
C = ? ", nosuchcol$(EMPTY)"
%}
%SQL{
SELECT url $(C) FROM urldb
%}
%HTML_REPORT{
%EXEC_SQL
%}
`
)

// sqlSkeletons returns the skeleton the linter reads for every %SQL
// section of src.
func sqlSkeletons(t *testing.T, src string) []*skeleton {
	t.Helper()
	m, err := core.Parse("gen.d2w", src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	p := &pass{l: New(), env: buildEnv(m, "gen.d2w")}
	var out []*skeleton
	for _, tp := range p.env.templates {
		if tp.Kind == core.ValSQL {
			out = append(out, p.skeletonOf(tp))
		}
	}
	return out
}

func TestStaticListSkipsNullItems(t *testing.T) {
	for _, d := range newSchemaLinter(t).LintSource("drift_list.d2w", driftList) {
		if d.Analyzer == "sqlreport" {
			t.Errorf("the engine runs a statement that parses: %s", d)
		}
	}
	if sk := sqlSkeletons(t, driftList)[0]; !sk.fullyStatic || sk.Skeleton != "SELECT url FROM urldb WHERE url LIKE 'h%'" {
		t.Errorf("skeleton = %q (static %v)", sk.Skeleton, sk.fullyStatic)
	}
}

func TestStaticCondWithNullIsNull(t *testing.T) {
	for _, d := range newSchemaLinter(t).LintSource("drift_cond.d2w", driftCond) {
		if d.Analyzer == "schema" || d.Severity == SevError {
			t.Errorf("the engine never reads nosuchcol: %s", d)
		}
	}
	if sk := sqlSkeletons(t, driftCond)[0]; !sk.fullyStatic || sk.Skeleton != "SELECT url  FROM urldb" {
		t.Errorf("skeleton = %q (static %v)", sk.Skeleton, sk.fullyStatic)
	}
}

// TestStaticValuesAreTheEngines: over generated %DEFINE chains — plain
// values, %LIST with null items, "? value", "t ? a : b" with and without
// an else, with form controls, undefined names and cycles among the
// references — every reference the linter inlines into a statement as
// static is what VarTable.Lookup returns under an empty form, and a
// variable whose value, as the engine evaluates it, carries request data
// is tainted.
func TestStaticValuesAreTheEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	form := cgi.NewForm()
	form.Add("IN", "MARK")
	form.Add("NONE", "MARK")
	inlined, tests := 0, 0
	for n := 0; n < 400; n++ {
		src, kinds := staticChains(rng)
		m, err := core.Parse("gen.d2w", src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		vt := core.NewVarTable(m.Name, nil)
		for _, sec := range m.Sections {
			if d, ok := sec.(*core.DefineSection); ok {
				vt.ApplyDefine(d)
			}
		}
		for i, sk := range sqlSkeletons(t, src) {
			if !sk.fullyStatic {
				continue
			}
			inlined++
			if kinds[i] == 2 {
				tests++
			}
			if want, err := vt.Lookup(chainVar(i)); err != nil || sk.Skeleton != want {
				t.Errorf("%s: the linter inlines %q, the engine evaluates %q, %v\n%s", chainVar(i), sk.Skeleton, want, err, src)
			}
		}
		e := buildEnv(m, "gen.d2w")
		for i := range kinds {
			v := chainVar(i)
			f := e.fact(v)
			page, err := core.Parse("gen.d2w", strings.Replace(src, `NAME="IN">`, `NAME="IN">[$(`+v+`)]`, 1))
			var out bytes.Buffer
			if err == nil {
				err = (&core.Engine{}).Run(page, core.ModeInput, form, &out)
			}
			if err == nil && strings.Contains(out.String(), "MARK") && f.taint.level == taintNone {
				t.Errorf("%s carries request data as the engine evaluates it, %q, but the linter sees none\n%s", v, out.String(), src)
			}
		}
	}
	t.Logf("%d static statements, %d of them a \"t ? a : b\"", inlined, tests)
	if inlined < 300 || tests < 20 {
		t.Errorf("%d static statements, %d of them a \"t ? a : b\": the generator is too narrow", inlined, tests)
	}
}

// staticChains generates a macro of six %DEFINE variables V0 X1 V2 X3 V4 X5
// (chainVar; V2 and V4 are report column names, which a %DEFINE overrides
// outside a report row) — plain
// values, %LIST with null items, "? value", "t ? a : b" with and without an
// else — referring to each other, to a form control and to an undefined
// name, and one %SQL section s<i> of variable i each. kinds[i] is variable
// i's form: 2 for "t ? a : b".
func staticChains(rng *rand.Rand) (src string, kinds []int) {
	const vars = 6
	name := func() string {
		switch rng.Intn(10) {
		case 0:
			return "IN" // a form control
		case 1:
			return "NONE" // undefined
		}
		return chainVar(rng.Intn(vars))
	}
	lits := []string{"", "", "a", "1", "x y"}
	value := func() string {
		s := lits[rng.Intn(len(lits))]
		for k := rng.Intn(3); k > 0; k-- {
			s += "$(" + name() + ")" + lits[rng.Intn(len(lits))]
		}
		return s
	}
	var b strings.Builder
	b.WriteString("%define{\n")
	kinds = make([]int, vars)
	for i := range kinds {
		kinds[i] = rng.Intn(5)
		switch v := chainVar(i); kinds[i] {
		case 0:
			fmt.Fprintf(&b, "%s = %q\n", v, value())
		case 1:
			fmt.Fprintf(&b, "%s = ? %q\n", v, value())
		case 2:
			fmt.Fprintf(&b, "%s = %s ? %q : %q\n", v, name(), value(), value())
		case 3:
			fmt.Fprintf(&b, "%s = %s ? %q\n", v, name(), value())
		case 4:
			fmt.Fprintf(&b, "%%LIST %q %s\n", []string{" AND ", ", "}[rng.Intn(2)], v)
			for k := rng.Intn(4); k > 0; k-- {
				fmt.Fprintf(&b, "%s = %q\n", v, value())
			}
		}
	}
	b.WriteString("%}\n")
	for i := 0; i < vars; i++ {
		fmt.Fprintf(&b, "%%SQL(s%d){$(%s)%%}\n", i, chainVar(i))
	}
	b.WriteString(`%HTML_INPUT{<INPUT NAME="IN">%}`)
	return b.String(), kinds
}

// chainVar is staticChains' variable i: Vi for even i, Xi for odd.
func chainVar(i int) string {
	return fmt.Sprintf("%c%d", "VX"[i%2], i)
}

// lintSeeds is FuzzLint's seed macros: the seeded-defect corpus and a few
// written here.
func lintSeeds(t testing.TB) []string {
	dir := lintDirPath(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".d2w") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(src))
	}
	return append(out, driftList, driftCond, "%define A = \"$(A)\"\n%HTML_INPUT{$(A$(B$(C)))%}",
		"%SQL{SELECT $(X%}", "%SQL{SELECT a FROM t WHERE a = $(Y)%}")
}

func FuzzLint(f *testing.F) {
	ddlSeed, err := os.ReadFile(appendixaPath(f))
	if err != nil {
		f.Fatal(err)
	}
	for _, src := range lintSeeds(f) {
		f.Add(src, string(ddlSeed))
	}
	f.Add("%SQL{SELECT $(X%}", "CREATE TABLE t (x INTEGER)")
	f.Add("%SQL{SELECT a FROM t WHERE a = $(Y)%}", "CREATE TABLE t (a VARCHAR(8));\nCREATE INDEX t_a ON t (a)")
	f.Fuzz(func(t *testing.T, src, ddl string) {
		// Linting arbitrary input against an arbitrary schema must never
		// panic; findings (including parse findings) are the only
		// acceptable outcome. A malformed DDL simply disables the
		// schema-aware analyzers, exactly as running without -schema.
		l := New()
		if schema, err := sqlsema.FromDDL(ddl); err == nil {
			l.Schema = schema
		}
		l.Resolver = func(name string) (string, error) {
			return "", fmt.Errorf("no includes under fuzzing")
		}
		l.LintSource("fuzz.d2w", src)
	})
}
