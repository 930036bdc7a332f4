package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"db2www/internal/cgi"
)

// --- test doubles ---

// fakeConn is a scripted DBConn: Execute answers from a map of SQL text
// to results or errors and records the statements it saw.
type fakeConn struct {
	results  map[string]*SQLResult
	errs     map[string]error
	log      *[]string
	begins   *int
	commits  *int
	rollbcks *int
}

func (f *fakeConn) Execute(sql string) (*SQLResult, error) {
	*f.log = append(*f.log, sql)
	if err, ok := f.errs[sql]; ok {
		return nil, err
	}
	if res, ok := f.results[sql]; ok {
		return res, nil
	}
	return &SQLResult{}, nil
}

func (f *fakeConn) Begin() error    { *f.begins++; return nil }
func (f *fakeConn) Commit() error   { *f.commits++; return nil }
func (f *fakeConn) Rollback() error { *f.rollbcks++; return nil }
func (f *fakeConn) Close() error    { return nil }

type fakeProvider struct {
	results  map[string]*SQLResult
	errs     map[string]error
	log      []string
	begins   int
	commits  int
	rollbcks int
	lastDB   string
	lastUser string
}

func (p *fakeProvider) Connect(database, login, password string) (DBConn, error) {
	p.lastDB, p.lastUser = database, login
	return &fakeConn{results: p.results, errs: p.errs, log: &p.log,
		begins: &p.begins, commits: &p.commits, rollbcks: &p.rollbcks}, nil
}

type sqlErr struct{ state, msg string }

func (e *sqlErr) Error() string    { return e.msg }
func (e *sqlErr) SQLState() string { return e.state }

func mustParse(t *testing.T, src string) *Macro {
	t.Helper()
	m, err := Parse("test.d2w", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m
}

func runMacro(t *testing.T, e *Engine, m *Macro, mode Mode, inputs *cgi.Form) string {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Run(m, mode, inputs, &buf); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return buf.String()
}

// --- variable substitution semantics (paper worked examples) ---

// TestLazyEvaluationOneTwoThree is the verbatim Section 4.3.1 example:
// Z is defined after the HTML input section, so $(X) expands to
// "One Two", not "One Two Three".
func TestLazyEvaluationOneTwoThree(t *testing.T) {
	src := `
%define X = "One$(Y)$(Z)"
%define Y = " Two"
%HTML_INPUT{
$(X)
%}
%define Z = " Three"
`
	m := mustParse(t, src)
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "One Two" {
		t.Fatalf("$(X) = %q, want %q", got, "One Two")
	}
}

// TestWhereClauseConstruction is the Section 3.1.3 example, all four
// input combinations, checking the exact strings the paper gives.
func TestWhereClauseConstruction(t *testing.T) {
	src := `
%define{
%list " AND " where_list
where_list = ? "custid = $(cust_inp)"
where_list = ? "product_name LIKE '$(prod_inp)%'"
where_clause = ? "WHERE $(where_list)"
%}
%HTML_INPUT{$(where_clause)%}
`
	m := mustParse(t, src)
	cases := []struct {
		cust, prod string
		want       string
	}{
		{"10100", "bikes", "WHERE custid = 10100 AND product_name LIKE 'bikes%'"},
		{"", "bikes", "WHERE product_name LIKE 'bikes%'"},
		{"10100", "", "WHERE custid = 10100"},
		{"", "", ""},
	}
	for _, c := range cases {
		in := cgi.NewForm()
		in.Add("cust_inp", c.cust)
		in.Add("prod_inp", c.prod)
		out := strings.TrimSpace(runMacro(t, &Engine{}, m, ModeInput, in))
		if out != c.want {
			t.Errorf("cust=%q prod=%q: got %q, want %q", c.cust, c.prod, out, c.want)
		}
	}
}

// TestDollarEscape checks the Section 3.1.1 escape: %DEFINE a = "$$(b)"
// evaluates to the literal string "$(b)".
func TestDollarEscape(t *testing.T) {
	src := `
%define a = "$$(b)"
%define b = "SECRET"
%HTML_INPUT{[$(a)]%}
`
	m := mustParse(t, src)
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "[$(b)]" {
		t.Fatalf("got %q, want %q", got, "[$(b)]")
	}
}

// TestHiddenVariableIdiom exercises the Appendix A idiom end to end: the
// form emits $$(hidden_a); the submitted value "$(hidden_a)" is parsed as
// an input value and dereferences to the hidden define.
func TestHiddenVariableIdiom(t *testing.T) {
	src := `
%define hidden_a = "title"
%HTML_REPORT{<<$(DBFIELDS)>>%}
`
	m := mustParse(t, src)
	in := cgi.NewForm()
	in.Add("DBFIELDS", "$(hidden_a)")
	out := runMacro(t, &Engine{}, m, ModeReport, in)
	if got := strings.TrimSpace(out); got != "<<title>>" {
		t.Fatalf("got %q, want <<title>>", got)
	}
}

func TestUndefinedVariableIsNullString(t *testing.T) {
	m := mustParse(t, `%HTML_INPUT{[$(nosuch)]%}`)
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "[]" {
		t.Fatalf("got %q, want []", got)
	}
}

func TestCircularReferenceError(t *testing.T) {
	src := `
%define a = "$(b)"
%define b = "$(a)"
%HTML_INPUT{$(a)%}
`
	m := mustParse(t, src)
	var buf bytes.Buffer
	err := (&Engine{}).Run(m, ModeInput, nil, &buf)
	if err == nil || !strings.Contains(err.Error(), "circular") {
		t.Fatalf("err = %v, want circular reference error", err)
	}
}

func TestSelfReferenceIsCircular(t *testing.T) {
	m := mustParse(t, "%define a = \"x$(a)\"\n%HTML_INPUT{$(a)%}")
	var buf bytes.Buffer
	if err := (&Engine{}).Run(m, ModeInput, nil, &buf); err == nil {
		t.Fatal("want circular reference error")
	}
}

// TestInputOverridesDefine checks Section 4.3: HTML input variables take
// priority over DEFINE defaults.
func TestInputOverridesDefine(t *testing.T) {
	m := mustParse(t, "%define color = \"blue\"\n%HTML_INPUT{$(color)%}")
	in := cgi.NewForm()
	in.Add("color", "red")
	out := runMacro(t, &Engine{}, m, ModeInput, in)
	if got := strings.TrimSpace(out); got != "red" {
		t.Fatalf("got %q, want red", got)
	}
	// And the default applies when no input arrives.
	out = runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "blue" {
		t.Fatalf("got %q, want blue", got)
	}
}

// TestListInputDefaultComma checks Section 2.2: a multiply-assigned input
// variable is a list variable with comma as the default separator.
func TestListInputDefaultComma(t *testing.T) {
	m := mustParse(t, `%HTML_INPUT{$(DBFIELD)%}`)
	in := cgi.NewForm()
	in.Add("DBFIELD", "title")
	in.Add("DBFIELD", "desc")
	out := runMacro(t, &Engine{}, m, ModeInput, in)
	if got := strings.TrimSpace(out); got != "title,desc" {
		t.Fatalf("got %q, want title,desc", got)
	}
}

// TestListInputCustomSeparator checks that %LIST overrides the separator
// for input list variables, and that null elements are skipped.
func TestListInputCustomSeparator(t *testing.T) {
	m := mustParse(t, "%define{\n%list \" OR \" conds\n%}\n%HTML_INPUT{$(conds)%}")
	in := cgi.NewForm()
	in.Add("conds", "a=1")
	in.Add("conds", "")
	in.Add("conds", "b=2")
	out := runMacro(t, &Engine{}, m, ModeInput, in)
	if got := strings.TrimSpace(out); got != "a=1 OR b=2" {
		t.Fatalf("got %q", got)
	}
}

// TestDynamicSeparator checks Section 3.1.3's "dynamically varying
// delimiters": the separator string may itself reference a variable
// (e.g. the user chooses AND vs OR).
func TestDynamicSeparator(t *testing.T) {
	src := `
%define{
%list " $(CONNECTOR) " clause
clause = "a=1"
clause = "b=2"
%}
%HTML_INPUT{$(clause)%}
`
	m := mustParse(t, src)
	for _, conn := range []string{"AND", "OR"} {
		in := cgi.NewForm()
		in.Add("CONNECTOR", conn)
		out := runMacro(t, &Engine{}, m, ModeInput, in)
		want := "a=1 " + conn + " b=2"
		if got := strings.TrimSpace(out); got != want {
			t.Errorf("connector %s: got %q, want %q", conn, got, want)
		}
	}
}

// TestConditionalForms covers the four syntactic forms of Section 3.1.2.
func TestConditionalForms(t *testing.T) {
	src := `
%define set_var = "yes"
%define a = set_var ? "T" : "F"
%define b = unset_var ? "T" : "F"
%define c = ? "val-$(set_var)"
%define d = ? "val-$(unset_var)"
%define e = set_var ? {block T%} : {block F%}
%define f = ? {multi $(set_var)%}
%HTML_INPUT{a=$(a) b=$(b) c=$(c) d=[$(d)] e=$(e) f=$(f)%}
`
	m := mustParse(t, src)
	out := strings.TrimSpace(runMacro(t, &Engine{}, m, ModeInput, nil))
	want := "a=T b=F c=val-yes d=[] e=block T f=multi yes"
	if out != want {
		t.Fatalf("got %q\nwant %q", out, want)
	}
}

func TestConditionalWithoutElseArm(t *testing.T) {
	m := mustParse(t, "%define a = missing ? \"T\"\n%HTML_INPUT{[$(a)]%}")
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "[]" {
		t.Fatalf("got %q", got)
	}
}

// TestReassignmentReplaces: a non-list variable assigned twice takes the
// later value (macros are processed top to bottom).
func TestReassignmentReplaces(t *testing.T) {
	m := mustParse(t, "%define a = \"one\"\n%define a = \"two\"\n%HTML_INPUT{$(a)%}")
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "two" {
		t.Fatalf("got %q", got)
	}
}

// --- modes ---

// TestDefineTablesAreParsed: Parse builds, for each %DEFINE section, the
// table of variables that stands after it, and a run takes those tables
// as they are, in document order; a section applied out of order, or one
// built by hand, gets a table of its own, and no table is written to.
func TestDefineTablesAreParsed(t *testing.T) {
	m := mustParse(t, `%define{ A = "1"
%list "," L
L = "x"
%}
%HTML_INPUT{$(A)$(L)%}
%define{ A = "2"
L = "y"
%}
%HTML_REPORT{$(A)$(L)%}`)
	var secs []*DefineSection
	for _, s := range m.Sections {
		if d, ok := s.(*DefineSection); ok {
			secs = append(secs, d)
		}
	}
	first, second := secs[0].defs, secs[1].defs
	if first == nil || second == nil || secs[1].base != first {
		t.Fatal("Parse left a %DEFINE section without its table")
	}
	if got := runMacro(t, &Engine{}, m, ModeInput, nil); got != "1x" {
		t.Errorf("input mode: %q, want 1x", got)
	}
	if got := runMacro(t, &Engine{}, m, ModeReport, nil); got != "2x,y" {
		t.Errorf("report mode: %q, want 2x,y", got)
	}
	if a := first.defs["A"]; len(a.Assigns) != 1 || a.Assigns[0].Value != "1" || len(first.defs["L"].Assigns) != 1 {
		t.Errorf("the first section's table was written to: A = %v, L = %v", a.Assigns, first.defs["L"].Assigns)
	}
	vt := NewVarTable(m.Name, nil)
	vt.ApplyDefine(secs[0])
	vt.ApplyDefine(secs[1])
	if vt.table != second {
		t.Error("a run in document order did not take the parsed table")
	}
	vt = NewVarTable(m.Name, nil)
	vt.ApplyDefine(secs[1]) // out of order: built on the empty table
	if vt.table == second || len(vt.table.defs["L"].Assigns) != 1 || vt.table.defs["L"].List {
		t.Error("a section applied out of order took the table built for document order")
	}
}

func TestInputModeIgnoresSQLAndReport(t *testing.T) {
	src := `
%define DATABASE = "X"
%SQL{SELECT 1%}
%HTML_INPUT{FORM%}
%HTML_REPORT{REPORT %EXEC_SQL%}
`
	m := mustParse(t, src)
	p := &fakeProvider{}
	out := runMacro(t, &Engine{DB: p}, m, ModeInput, nil)
	if strings.TrimSpace(out) != "FORM" {
		t.Fatalf("input mode output = %q", out)
	}
	if len(p.log) != 0 {
		t.Fatalf("input mode executed SQL: %v", p.log)
	}
}

func TestReportModeRunsSQL(t *testing.T) {
	src := `
%define DATABASE = "CELDIAL"
%SQL{SELECT a FROM t%}
%HTML_REPORT{BEFORE %EXEC_SQL AFTER%}
`
	m := mustParse(t, src)
	p := &fakeProvider{results: map[string]*SQLResult{
		"SELECT a FROM t": {Columns: []string{"a"}, Rows: [][]Field{{{S: "1"}}, {{S: "2"}}}},
	}}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if p.lastDB != "CELDIAL" {
		t.Errorf("connected to %q, want CELDIAL", p.lastDB)
	}
	if len(p.log) != 1 || p.log[0] != "SELECT a FROM t" {
		t.Fatalf("executed %v", p.log)
	}
	if !strings.Contains(out, "BEFORE") || !strings.Contains(out, "AFTER") {
		t.Errorf("report text missing: %q", out)
	}
	// Default table format.
	if !strings.Contains(out, "<TABLE") || !strings.Contains(out, "<TH>a</TH>") ||
		!strings.Contains(out, "<TD>1</TD>") {
		t.Errorf("default table missing: %q", out)
	}
}

// TestSQLBuiltByVariables: the SQL string is assembled at run time from
// input variables — the core of the cross-language mechanism.
func TestSQLBuiltByVariables(t *testing.T) {
	src := `
%define{
DATABASE = "D"
%list " AND " where_list
where_list = ? "custid = $(cust_inp)"
where_list = ? "product_name LIKE '$(prod_inp)%'"
where_clause = ? "WHERE $(where_list)"
%}
%SQL{SELECT * FROM products $(where_clause)%}
%HTML_REPORT{%EXEC_SQL%}
`
	m := mustParse(t, src)
	p := &fakeProvider{}
	in := cgi.NewForm()
	in.Add("cust_inp", "10100")
	in.Add("prod_inp", "bikes")
	runMacro(t, &Engine{DB: p}, m, ModeReport, in)
	want := "SELECT * FROM products WHERE custid = 10100 AND product_name LIKE 'bikes%'"
	if len(p.log) != 1 || p.log[0] != want {
		t.Fatalf("executed %q\nwant %q", p.log, want)
	}
}

func TestNamedExecSQL(t *testing.T) {
	src := `
%define DATABASE = "D"
%SQL(q1){SELECT 1%}
%SQL(q2){SELECT 2%}
%HTML_REPORT{%EXEC_SQL(q2)%}
`
	m := mustParse(t, src)
	p := &fakeProvider{}
	runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if len(p.log) != 1 || p.log[0] != "SELECT 2" {
		t.Fatalf("executed %v, want only SELECT 2", p.log)
	}
}

// TestNamedExecSQLViaVariable: %EXEC_SQL($(sqlcmd)) resolves the section
// name at run time (Section 3.4), letting the user pick the command.
func TestNamedExecSQLViaVariable(t *testing.T) {
	src := `
%define DATABASE = "D"
%SQL(query_by_title){SELECT 1%}
%SQL(query_by_url){SELECT 2%}
%HTML_REPORT{%EXEC_SQL($(sqlcmd))%}
`
	m := mustParse(t, src)
	p := &fakeProvider{}
	in := cgi.NewForm()
	in.Add("sqlcmd", "query_by_url")
	runMacro(t, &Engine{DB: p}, m, ModeReport, in)
	if len(p.log) != 1 || p.log[0] != "SELECT 2" {
		t.Fatalf("executed %v", p.log)
	}
}

func TestUnnamedExecSQLRunsAllUnnamedInOrder(t *testing.T) {
	src := `
%define DATABASE = "D"
%SQL{SELECT 1%}
%SQL(named){SELECT 99%}
%SQL{SELECT 2%}
%HTML_REPORT{%EXEC_SQL%}
`
	m := mustParse(t, src)
	p := &fakeProvider{}
	runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if len(p.log) != 2 || p.log[0] != "SELECT 1" || p.log[1] != "SELECT 2" {
		t.Fatalf("executed %v, want unnamed sections only, in order", p.log)
	}
}

func TestExecSQLMissingSection(t *testing.T) {
	m := mustParse(t, "%define DATABASE = \"D\"\n%HTML_REPORT{%EXEC_SQL(nosuch)%}")
	var buf bytes.Buffer
	err := (&Engine{DB: &fakeProvider{}}).Run(m, ModeReport, nil, &buf)
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("err = %v", err)
	}
}

// --- custom report rendering ---

func reportMacro(extra string) string {
	return `
%define DATABASE = "D"
` + extra + `
%HTML_REPORT{%EXEC_SQL%}
`
}

func twoColResult() map[string]*SQLResult {
	return map[string]*SQLResult{
		"SELECT url, title FROM urldb": {
			Columns: []string{"url", "title"},
			Rows: [][]Field{
				{{S: "http://a"}, {S: "Alpha"}},
				{{S: "http://b"}, {S: "Beta"}},
				{{S: "http://c"}, {Null: true}},
			},
		},
	}
}

func TestCustomReportVariables(t *testing.T) {
	src := reportMacro(`
%SQL{SELECT url, title FROM urldb
%SQL_REPORT{
HEAD cols=$(N1)/$(N2) list=$(NLIST)
%ROW{R$(ROW_NUM): $(V1) [$(V2)] t=$(V.title) u=$(V.URL)
%}
FOOT total=$(ROW_NUM)
%}
%}`)
	m := mustParse(t, src)
	p := &fakeProvider{results: twoColResult()}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	for _, want := range []string{
		"HEAD cols=url/title list=url, title",
		"R1: http://a [Alpha] t=Alpha u=http://a",
		"R2: http://b [Beta] t=Beta u=http://b",
		"R3: http://c [] t= u=http://c", // NULL renders as null string
		"FOOT total=3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\nfull output:\n%s", want, out)
		}
	}
}

// TestRptMaxRows checks RPT_MAXROWS limits printed rows while ROW_NUM in
// the footer still reports the full count (Section 3.2.1).
func TestRptMaxRows(t *testing.T) {
	src := reportMacro(`
%define RPT_MAXROWS = "2"
%SQL{SELECT url, title FROM urldb
%SQL_REPORT{%ROW{[$(V1)]%}TOTAL=$(ROW_NUM)%}
%}`)
	m := mustParse(t, src)
	p := &fakeProvider{results: twoColResult()}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if strings.Count(out, "[http://") != 2 {
		t.Errorf("printed rows = %d, want 2\n%s", strings.Count(out, "[http://"), out)
	}
	if !strings.Contains(out, "TOTAL=3") {
		t.Errorf("footer ROW_NUM must be the total row count:\n%s", out)
	}
}

// TestAppendixAConditionalColumns reproduces the D2/D3 idiom: conditional
// variables that print a column only when it was selected.
func TestAppendixAConditionalColumns(t *testing.T) {
	src := reportMacro(`
%define D2 = ? "<br>$(V2)"
%SQL{SELECT url, title FROM urldb
%SQL_REPORT{%ROW{<LI>$(V1)$(D2)
%}%}
%}`)
	m := mustParse(t, src)
	p := &fakeProvider{results: twoColResult()}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if !strings.Contains(out, "<LI>http://a<br>Alpha") {
		t.Errorf("D2 must expand for non-null V2:\n%s", out)
	}
	// Third row's title is NULL, so D2 is null — no <br>.
	if !strings.Contains(out, "<LI>http://c\n") {
		t.Errorf("D2 must collapse for NULL V2:\n%s", out)
	}
}

func TestReportWithoutRowBlock(t *testing.T) {
	src := reportMacro(`
%SQL{SELECT url, title FROM urldb
%SQL_REPORT{Just a header, $(N1) and $(N2).%}
%}`)
	m := mustParse(t, src)
	p := &fakeProvider{results: twoColResult()}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if !strings.Contains(out, "Just a header, url and title.") {
		t.Errorf("header not rendered: %q", out)
	}
	if strings.Contains(out, "http://a") {
		t.Errorf("rows must not print without a %%ROW block: %q", out)
	}
}

// TestDuplicateRowBlock: a second %ROW block is an error at its own line,
// also behind a footer word that begins with "%ROW", or a footer %ROW with
// no '{', which are text.
func TestDuplicateRowBlock(t *testing.T) {
	for _, c := range []struct {
		footer string
		line   int
	}{
		{"\n%ROW{r2%}\n", 5},
		{"\nfoot %ROWS here\n%ROW{r2%}\n", 6},
		{"\nTotal %ROW count\n%ROW {r2%}\n", 6},
	} {
		src := "%SQL{SELECT 1\n%SQL_REPORT{\nhead\n%ROW{r1%}" + c.footer + "%}\n%}"
		want := fmt.Sprintf("m.d2w:%d: duplicate %%ROW block in %%SQL_REPORT", c.line)
		if _, err := Parse("m.d2w", src); err == nil || err.Error() != want {
			t.Errorf("%q: err = %v, want %s", src, err, want)
		}
	}
	for _, footer := range []string{"\nfoot %ROWS here\n", "\nTotal %ROW count, see %row.\n"} {
		m := mustParse(t, "%SQL{SELECT 1\n%SQL_REPORT{%ROW{r1%}"+footer+"%}\n%}")
		if rb := m.SQLSections()[0].Report; rb.Row != "r1" || rb.Footer != footer {
			t.Errorf("row %q, footer %q", rb.Row, rb.Footer)
		}
	}
}

func TestNonSelectDefaultReport(t *testing.T) {
	src := reportMacro(`%SQL{UPDATE t SET a = 1%}`)
	m := mustParse(t, src)
	p := &fakeProvider{results: map[string]*SQLResult{
		"UPDATE t SET a = 1": {RowsAffected: 7},
	}}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if !strings.Contains(out, "7 row(s) affected") {
		t.Errorf("got %q", out)
	}
}

// --- SHOWSQL ---

func TestShowSQL(t *testing.T) {
	src := reportMacro(`%SQL{SELECT 1%}`)
	m := mustParse(t, src)
	p := &fakeProvider{}
	in := cgi.NewForm()
	in.Add("SHOWSQL", "YES")
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, in)
	if !strings.Contains(out, "SELECT 1") || !strings.Contains(out, "SQL statement") {
		t.Errorf("SHOWSQL did not echo the statement: %q", out)
	}
	// The paper's form sends SHOWSQL="" for No — no echo.
	in2 := cgi.NewForm()
	in2.Add("SHOWSQL", "")
	out = runMacro(t, &Engine{DB: p}, m, ModeReport, in2)
	if strings.Contains(out, "SQL statement") {
		t.Errorf("empty SHOWSQL must not echo: %q", out)
	}
}

// --- error and message handling ---

func TestSQLMessageMatch(t *testing.T) {
	src := reportMacro(`
%SQL{SELECT boom
%SQL_MESSAGE{
42601 : "<B>Bad query, state=$(SQL_STATE)</B>" : continue
default : "fallback" : exit
%}
%}`)
	m := mustParse(t, src)
	p := &fakeProvider{errs: map[string]error{
		"SELECT boom": &sqlErr{state: "42601", msg: "syntax error"},
	}}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if !strings.Contains(out, "<B>Bad query, state=42601</B>") {
		t.Errorf("custom message missing: %q", out)
	}
}

func TestSQLMessageDefaultEntry(t *testing.T) {
	src := reportMacro(`
%SQL{SELECT boom
%SQL_MESSAGE{
default : "custom fallback: $(SQL_MESSAGE)"
%}
%}`)
	m := mustParse(t, src)
	p := &fakeProvider{errs: map[string]error{
		"SELECT boom": &sqlErr{state: "99999", msg: "kaput"},
	}}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if !strings.Contains(out, "custom fallback: kaput") {
		t.Errorf("default entry missing: %q", out)
	}
}

func TestSQLErrorWithoutMessageBlockPrintsDBMSMessage(t *testing.T) {
	src := reportMacro(`%SQL{SELECT boom%}`)
	m := mustParse(t, src)
	p := &fakeProvider{errs: map[string]error{
		"SELECT boom": &sqlErr{state: "42601", msg: "engine says no"},
	}}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if !strings.Contains(out, "engine says no") {
		t.Errorf("DBMS message missing: %q", out)
	}
}

func TestMessageExitStopsReport(t *testing.T) {
	src := `
%define DATABASE = "D"
%SQL{SELECT boom
%SQL_MESSAGE{
42601 : "stopped" : exit
%}
%}
%SQL{SELECT after%}
%HTML_REPORT{%EXEC_SQL TRAILING%}
`
	m := mustParse(t, src)
	p := &fakeProvider{errs: map[string]error{
		"SELECT boom": &sqlErr{state: "42601", msg: "x"},
	}}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if !strings.Contains(out, "stopped") {
		t.Errorf("message missing: %q", out)
	}
	if strings.Contains(out, "TRAILING") {
		t.Errorf("exit must stop report processing: %q", out)
	}
	for _, sql := range p.log {
		if sql == "SELECT after" {
			t.Error("exit must stop executing later SQL sections")
		}
	}
}

func TestNoRowsPlus100Message(t *testing.T) {
	src := reportMacro(`
%SQL{SELECT a FROM empty
%SQL_MESSAGE{
+100 : "<B>No records found</B>"
%}
%}`)
	m := mustParse(t, src)
	p := &fakeProvider{results: map[string]*SQLResult{
		"SELECT a FROM empty": {Columns: []string{"a"}},
	}}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if !strings.Contains(out, "No records found") {
		t.Errorf("+100 message missing: %q", out)
	}
}

// --- transaction modes (Section 5) ---

func TestAutoCommitModeContinuesAfterError(t *testing.T) {
	src := `
%define DATABASE = "D"
%SQL{UPDATE one%}
%SQL{UPDATE two%}
%HTML_REPORT{%EXEC_SQL%}
`
	m := mustParse(t, src)
	p := &fakeProvider{errs: map[string]error{
		"UPDATE one": &sqlErr{state: "23505", msg: "dup"},
	}}
	runMacro(t, &Engine{DB: p, Txn: TxnAutoCommit}, m, ModeReport, nil)
	if len(p.log) != 2 {
		t.Fatalf("auto-commit must continue to the second statement: %v", p.log)
	}
	if p.begins != 0 {
		t.Errorf("auto-commit mode must not open an explicit transaction")
	}
}

func TestSingleTxnCommitsOnSuccess(t *testing.T) {
	src := `
%define DATABASE = "D"
%SQL{UPDATE one%}
%SQL{UPDATE two%}
%HTML_REPORT{%EXEC_SQL%}
`
	m := mustParse(t, src)
	p := &fakeProvider{}
	runMacro(t, &Engine{DB: p, Txn: TxnSingle}, m, ModeReport, nil)
	if p.begins != 1 || p.commits != 1 || p.rollbcks != 0 {
		t.Fatalf("begin/commit/rollback = %d/%d/%d, want 1/1/0", p.begins, p.commits, p.rollbcks)
	}
}

func TestSingleTxnRollsBackOnError(t *testing.T) {
	src := `
%define DATABASE = "D"
%SQL{UPDATE one%}
%SQL{UPDATE two%}
%HTML_REPORT{%EXEC_SQL LATER%}
`
	m := mustParse(t, src)
	p := &fakeProvider{errs: map[string]error{
		"UPDATE two": &sqlErr{state: "23505", msg: "dup"},
	}}
	out := runMacro(t, &Engine{DB: p, Txn: TxnSingle}, m, ModeReport, nil)
	if p.begins != 1 || p.rollbcks != 1 || p.commits != 0 {
		t.Fatalf("begin/commit/rollback = %d/%d/%d, want 1/0/1", p.begins, p.commits, p.rollbcks)
	}
	if strings.Contains(out, "LATER") {
		t.Errorf("single-transaction failure must stop the report: %q", out)
	}
}

// --- %EXEC variables ---

func TestExecVariable(t *testing.T) {
	reg := NewCommandRegistry()
	reg.RegisterCommand("probe", func(args []string, stdout *bytes.Buffer) int {
		fmt.Fprintf(stdout, "saw %d args", len(args))
		if len(args) > 1 && args[1] == "fail" {
			return 8
		}
		return 0
	})
	src := `
%define rc = %EXEC "probe $(arg)"
%define err_msg = rc ? "<B>error $(rc)</B>" : "ok"
%HTML_INPUT{$(err_msg) out=[$(rc_OUTPUT)]%}
`
	m := mustParse(t, src)
	e := &Engine{Commands: reg}

	in := cgi.NewForm()
	in.Add("arg", "ok")
	out := runMacro(t, e, m, ModeInput, in)
	if !strings.Contains(out, "ok") || strings.Contains(out, "error") {
		t.Errorf("success case: %q", out)
	}

	in2 := cgi.NewForm()
	in2.Add("arg", "fail")
	out = runMacro(t, e, m, ModeInput, in2)
	if !strings.Contains(out, "<B>error 8</B>") {
		t.Errorf("failure case: %q", out)
	}
	if !strings.Contains(out, "out=[saw 2 args]") {
		t.Errorf("captured output missing: %q", out)
	}
}

func TestExecUnknownCommand(t *testing.T) {
	reg := NewCommandRegistry()
	m := mustParse(t, "%define rc = %EXEC \"nosuch\"\n%HTML_INPUT{$(rc)%}")
	out := runMacro(t, &Engine{Commands: reg}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "127" {
		t.Fatalf("unknown command rc = %q, want 127", got)
	}
}

// --- transform extensions ---

func TestTransformPrefixes(t *testing.T) {
	src := `%HTML_INPUT{h=$(@html:x) q=$(@sq:y) u=$(@url:z)%}`
	m := mustParse(t, src)
	in := cgi.NewForm()
	in.Add("x", "<b>&</b>")
	in.Add("y", "O'Hara")
	in.Add("z", "a b&c")
	out := runMacro(t, &Engine{}, m, ModeInput, in)
	if !strings.Contains(out, "h=&lt;b&gt;&amp;&lt;/b&gt;") {
		t.Errorf("@html: %q", out)
	}
	if !strings.Contains(out, "q=O''Hara") {
		t.Errorf("@sq: %q", out)
	}
	if !strings.Contains(out, "u=a+b%26c") {
		t.Errorf("@url: %q", out)
	}
}

// --- parser behaviour ---

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"stray text", "hello", "outside a section"},
		{"unknown keyword", "%BOGUS{x%}", "unknown section keyword"},
		{"unterminated", "%HTML_INPUT{never closed", "unterminated"},
		{"two inputs", "%HTML_INPUT{a%}\n%HTML_INPUT{b%}", "at most 1"},
		{"two reports", "%HTML_REPORT{a%}\n%HTML_REPORT{b%}", "at most 1"},
		{"two unnamed exec", "%HTML_REPORT{%EXEC_SQL %EXEC_SQL%}", "at most one unnamed"},
		{"dup sql name", "%SQL(q){SELECT 1%}\n%SQL(q){SELECT 2%}", "duplicate SQL section name"},
		{"empty sql", "%SQL{   %}", "no SQL command"},
		{"exec in input", "%HTML_INPUT{%EXEC_SQL%}", "only allowed in"},
		{"bad define", "%DEFINE{ 9bad = \"x\" %}", "unexpected character"},
		{"define missing eq", "%DEFINE{ a \"x\" %}", "expected '='"},
		{"unterminated string", "%DEFINE{ a = \"x %}", "unterminated"},
		{"bad message entry", "%SQL{SELECT 1\n%SQL_MESSAGE{\nnot an entry\n%}\n%}", "malformed"},
		{"bad disposition", "%SQL{SELECT 1\n%SQL_MESSAGE{\n42601 : \"x\" : maybe\n%}\n%}", "continue or exit"},
	}
	for _, c := range cases {
		_, err := Parse("t.d2w", c.src)
		if err == nil {
			t.Errorf("%s: expected parse error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestParseLineFormDefine(t *testing.T) {
	m := mustParse(t, "%DEFINE varl = \"$(var2).abc\"\n%HTML_INPUT{x%}")
	ds, ok := m.Sections[0].(*DefineSection)
	if !ok || len(ds.Stmts) != 1 || ds.Stmts[0].Name != "varl" {
		t.Fatalf("sections = %#v", m.Sections[0])
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	m := mustParse(t, "%Define a = \"1\"\n%html_input{$(a)%}")
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "1" {
		t.Fatalf("got %q", got)
	}
}

func TestVariableNamesCaseSensitive(t *testing.T) {
	m := mustParse(t, "%define Abc = \"1\"\n%HTML_INPUT{[$(abc)][$(Abc)]%}")
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "[][1]" {
		t.Fatalf("got %q", got)
	}
}

func TestCommentSection(t *testing.T) {
	m := mustParse(t, "%{ this is a comment with $(refs) %}\n%HTML_INPUT{x%}")
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestParseModeStrings(t *testing.T) {
	if m, err := ParseMode("INPUT"); err != nil || m != ModeInput {
		t.Error("INPUT")
	}
	if m, err := ParseMode("report"); err != nil || m != ModeReport {
		t.Error("report")
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus must fail")
	}
}

func TestMultiLineDefineValue(t *testing.T) {
	src := "%DEFINE{\nbig = {line one\nline two%}\n%}\n%HTML_INPUT{$(big)%}"
	m := mustParse(t, src)
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if !strings.Contains(out, "line one\nline two") {
		t.Fatalf("got %q", out)
	}
}

func TestLoginPasswordPassedToProvider(t *testing.T) {
	src := `
%define{
DATABASE = "PAYROLL"
LOGIN = "appuser"
PASSWORD = "secret"
%}
%SQL{SELECT 1%}
%HTML_REPORT{%EXEC_SQL%}
`
	m := mustParse(t, src)
	p := &fakeProvider{}
	runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if p.lastDB != "PAYROLL" || p.lastUser != "appuser" {
		t.Fatalf("provider got db=%q user=%q", p.lastDB, p.lastUser)
	}
}

func TestEngineMaxRowsDefault(t *testing.T) {
	src := reportMacro(`%SQL{SELECT url, title FROM urldb%}`)
	m := mustParse(t, src)
	p := &fakeProvider{results: twoColResult()}
	out := runMacro(t, &Engine{DB: p, MaxRows: 1}, m, ModeReport, nil)
	if strings.Count(out, "<TR>") != 2 { // header + 1 data row
		t.Fatalf("rows in default table = %d, want header+1:\n%s", strings.Count(out, "<TR>"), out)
	}
}
