package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"db2www/internal/cgi"
	"db2www/internal/obs"
)

// referenceRenderCustom is renderCustom without bind: every reference of
// every row is evaluated by name — scope walk, %EXEC outputs, HTML input
// variables, definitions — through appendParts' generic path. It is the
// specification the bound and the memoised path are held to.
func referenceRenderCustom(r *macroRun, rb *ReportBlock, res *SQLResult, _ *obs.SQLExec) error {
	max, err := r.maxRows()
	if err != nil {
		return err
	}
	rs := newRowScope(res.Columns)
	r.vt.pushScope(rs)
	defer r.vt.popScope()
	if err := r.emit(rb.header); err != nil {
		return err
	}
	start, err := r.startRow()
	if err != nil {
		return err
	}
	if rb.HasRow {
		rs.inRow = true
		printed := 0
		for i := start - 1; i < len(res.Rows) && (max <= 0 || printed < max); i++ {
			printed++
			rs.row, rs.rowNum = res.Rows[i], i+1
			if r.buf, _, err = r.vt.appendParts(r.buf[:0], rb.row.parts, nil, nil); err != nil {
				return err
			}
			r.out.Write(r.buf)
		}
		rs.inRow, rs.row = false, nil
	}
	rs.rowNum = len(res.Rows)
	return r.emit(rb.footer)
}

// rowCommands is the %EXEC registry of the oracle: rc's exit code and
// output are a function of its argument.
func rowCommands() *CommandRegistry {
	reg := NewCommandRegistry()
	reg.RegisterCommand("rc", func(args []string, stdout *bytes.Buffer) int {
		fmt.Fprintf(stdout, "out%v", args[1:])
		return len(strings.Join(args, "")) % 3
	})
	return reg
}

// reportOutcome is everything a report leaves behind.
type reportOutcome struct {
	page, err string
	vars      string // name, source, count, max depth, null of every record entry, in order
	wrapped   int    // %ROW references bound to a %DEFINE wrapper
	// memoable is whether bind resolved every %ROW reference over rows as
	// wide as the header; served whether the rows came from the result's memo.
	memoable, served bool
}

// renderReport renders the one %SQL_REPORT block of m over res, the
// definitions applied and inputs posted, through render.
func renderReport(t testing.TB, m *Macro, inputs *cgi.Form, res *SQLResult,
	render func(*macroRun, *ReportBlock, *SQLResult, *obs.SQLExec) error) reportOutcome {
	t.Helper()
	e := &Engine{Commands: rowCommands()}
	vt := NewVarTable(m.Name, inputs)
	vt.engine, vt.trace = e, obs.NewTrace("t")
	var page bytes.Buffer
	run := &macroRun{engine: e, macro: m, vt: vt, out: &page, ctx: context.Background(), trace: vt.trace}
	var rb *ReportBlock
	for _, sec := range m.Sections {
		switch s := sec.(type) {
		case *DefineSection:
			vt.ApplyDefine(s)
		case *HTMLSection: // evaluated where it stands, as a page above the report would be
			if err := run.renderHTML(s, ModeInput); err != nil {
				t.Fatal(err)
			}
		case *SQLSection:
			rb = s.Report
		}
	}
	var out reportOutcome
	stmt := &obs.SQLExec{}
	if err := render(run, rb, res, stmt); err != nil {
		out.err = err.Error()
	}
	out.page, out.served = page.String(), stmt.Render == "memo"
	for _, v := range vt.trace.Vars {
		out.vars += fmt.Sprintf("%s %s ×%d depth %d null %v\n", v.Name, v.Source, v.Count, v.MaxDepth, v.Null)
	}
	out.vars += fmt.Sprintf("%d dropped\n", vt.trace.VarsDropped)
	if len(vt.scopes) != 0 || len(vt.visiting) != 0 {
		t.Fatalf("%d scopes and %d names in evaluation left behind", len(vt.scopes), len(vt.visiting))
	}
	// What bind makes of the template, asked the way renderCustom asks.
	rs := newRowScope(res.Columns)
	vt.pushScope(rs)
	rs.inRow, rs.rowNum = true, 1
	rs.bind(vt, rb.row.parts)
	for _, b := range rs.bound {
		if b.wrap != nil {
			out.wrapped++
		}
	}
	out.memoable = rs.allBound(rb.row.parts) && rs.uniform(res.Rows)
	return out
}

// checkRowBinding holds renderCustom to referenceRenderCustom on the report
// of macro src and returns what the bound path produced.
func checkRowBinding(t testing.TB, src string, inputs *cgi.Form, res *SQLResult) reportOutcome {
	t.Helper()
	m, err := Parse("rowbind.d2w", src)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, src)
	}
	return checkRowBindingOf(t, m, src, inputs, res)
}

// checkRowBindingOf renders the report three times on one result, as a cache
// would hand it out — printed, printed into the memo, served from the memo
// when the block is memoable and its rows were reached — and holds each
// rendering to the reference. It returns the last.
func checkRowBindingOf(t testing.TB, m *Macro, src string, inputs *cgi.Form, res *SQLResult) reportOutcome {
	t.Helper()
	res = &SQLResult{Columns: res.Columns, Rows: res.Rows} // a result no other case rendered
	want := renderReport(t, m, inputs, res, referenceRenderCustom)
	var got reportOutcome
	for i, rendering := range []string{"printed", "memo fill", "memo served"} {
		got = renderReport(t, m, inputs, res, (*macroRun).renderCustom)
		if got.page != want.page || got.err != want.err || got.vars != want.vars {
			t.Fatalf("%s and by-name rendering differ\nmacro:\n%s\ninputs %q\ncolumns %q rows %v\n"+
				"page  %q\nwant  %q\nerror %q\nwant  %q\nrecord\n%swant\n%s", rendering,
				src, inputs.Encode(), res.Columns, res.Rows, got.page, want.page, got.err, want.err, got.vars, want.vars)
		}
		// An error may come before the rows (the header) or after (the footer).
		served := i == 2 && got.memoable
		if got.served && !served || !got.served && served && got.err == "" {
			t.Fatalf("%s: served from the memo %v, want %v (memoable %v, error %q)\nmacro:\n%s",
				rendering, got.served, served, got.memoable, got.err, src)
		}
	}
	return got
}

func rowReportMacro(defines, header, row, footer string) string {
	return "%DEFINE{\n" + defines + "\n%}\n%SQL{SELECT 1\n%SQL_REPORT{" + header + "\n%ROW{" + row + "\n%}\n" + footer + "%}\n%}\n"
}

func form(pairs ...string) *cgi.Form {
	f := cgi.NewForm()
	for i := 0; i < len(pairs); i += 2 {
		f.Add(pairs[i], pairs[i+1])
	}
	return f
}

var urlTable = &SQLResult{
	Columns: []string{"url", "title", "description"},
	Rows: [][]Field{
		{{S: "http://a/"}, {S: "A & <B>"}, {S: "it's"}},
		{{S: "http://b/"}, {Null: true}, {S: ""}},
		{{S: "http://c/"}, {S: ""}, {Null: true}},
		{{S: "http://d/"}, {S: "D"}, {S: "d&d"}},
	},
}

// appendixA and appendixAWrappers are the %ROW template and the row
// wrappers of the paper's Appendix A report.
const (
	appendixA         = `<LI> <A HREF="$(V1)">$(V1)</A> $(D2) $(D3)`
	appendixAWrappers = `D2 = ? "<br>$(V2)"` + "\n" + `D3 = ? "<br>$(V3)"`
)

// TestRowBindingMatchesByName: the page and the request's record are the
// same whether %ROW's references are bound once per report or looked up by
// name on every row — on the cases a binding could get wrong, each with
// the number of references it is expected to bind to a %DEFINE wrapper.
func TestRowBindingMatchesByName(t *testing.T) {
	wide := &SQLResult{Columns: []string{"title", "x", "TITLE"}, Rows: [][]Field{{{S: "first"}, {S: "x"}, {S: "last"}}}}
	cases := []struct {
		name    string
		defines string
		row     string
		inputs  *cgi.Form
		res     *SQLResult
		wrapped int
	}{
		{"appendix A", appendixAWrappers, appendixA, nil, urlTable, 2},
		{"simple keeps its text on a null column", `D2 = "<br>$(V2)"` + "\n" + `D3 = "[$(V3)]"`, appendixA, nil, urlTable, 2},
		{"conditional on another variable", `D2 = V2 ? "<br>$(V2)" : "none"` + "\n" + `D3 = ? "$(V3)"`, appendixA, nil, urlTable, 1},
		{"list variable", `%LIST " | " D2` + "\n" + `D2 = "$(V2)"` + "\n" + `D2 = "$(V3)"`, appendixA, nil, urlTable, 0},
		{"exec variable keeps every wrapper unbound", `D2 = %EXEC "rc $(V1)"` + "\n" + `D3 = ? "<br>$(V3)"`, appendixA + " $(D2_OUTPUT)", nil, urlTable, 0},
		{"exec output shadows a wrapper from the first row on", `E = %EXEC "rc $(V2)"` + "\n" + `E_OUTPUT = "wrapper $(V1)"`, "$(E_OUTPUT) $(E) $(E_OUTPUT)", nil, urlTable, 0},
		{"redefined: the last assignment", `D2 = "$(nowhere)"` + "\n" + `D2 = ? "<i>$(V.TITLE)</i>"` + "\n" + `D3 = ? "$(V3)"` + "\n" + `D3 = "$(D2)"`, appendixA, nil, urlTable, 1},
		{"redefined from exec to simple", `D2 = %EXEC "rc 1"` + "\n" + `D2 = "$(V2)"`, appendixA, nil, urlTable, 1},
		{"the output of an exec variable that ran before it was redefined",
			`E = %EXEC "rc 1"` + "\n%}\n%HTML_INPUT{$(E)%}\n%DEFINE{\n" + `E = "$(V1)"` + "\n" + `E_OUTPUT = "wrapper $(V1)"`,
			"$(E_OUTPUT) $(E)", nil, urlTable, 1},
		{"undefined", ``, appendixA, nil, urlTable, 0},
		{"wrapper of a wrapper", `D2 = ? "<br>$(V2)"` + "\n" + `D3 = ? "($(D2))"`, appendixA, nil, urlTable, 1},
		{"transforms outside and inside", `D2 = ? "<br>$(@html:V2)"` + "\n" + `D3 = ? "'$(@sq:V3)' $(@url:V.description)"`, "$(@html:D2) $(@url:D3) $(@sq:D3)", nil, urlTable, 3},
		{"ordinal beyond the width", `D2 = ? "<br>$(V4)"` + "\n" + `D3 = "$(V3)$(V0)"` + "\n" + `V7 = "seven $(V1)"`, appendixA + " $(V4) $(V7)", nil, urlTable, 2},
		{"duplicate column names: the later wins", `D2 = ? "$(V.title)/$(V.Title)/$(V.x)"` + "\n" + `D3 = "$(V.none)"`, "$(D2) $(V.TITLE) $(D3)", nil, wide, 2},
		{"a posted wrapper name wins", appendixAWrappers, appendixA, form("D2", "posted $(V1)", "D3", ""), urlTable, 0},
		{"names the report scope answers", `ROW_NUM = "$(V1)"` + "\n" + `VLIST = "$(V1)"` + "\n" + `N2 = "$(V1)"` + "\n" + `N9 = "$(V1)"` + "\n" + `V2 = "$(V1)"`, "$(ROW_NUM) $(VLIST) $(N2) $(N9) $(V2)", nil, urlTable, 1},
		{"late-evaluated and escaped references", `one = "2"` + "\n" + `D2 = "$(V$(one))"` + "\n" + `D3 = "$$(V3) $(V3)"`, appendixA + " $(D$(one)) $$(D2)", nil, urlTable, 1},
		{"literal wrapper and empty wrapper", `D2 = "text"` + "\n" + `D3 = ""`, appendixA, nil, urlTable, 2},
		{"paging by definition", `RPT_MAXROWS = "2"` + "\n" + `RPT_STARTROW = "2"` + "\n" + `D2 = ? "<br>$(V2)"`, appendixA, nil, urlTable, 1},
		{"paging past the end", `D2 = ? "<br>$(V2)"`, appendixA, form("RPT_STARTROW", "9", "RPT_MAXROWS", "1"), urlTable, 1},
		{"circular wrapper, no rows: no error", `D2 = "$(D3)"` + "\n" + `D3 = "$(D2)"`, appendixA, nil, &SQLResult{Columns: urlTable.Columns}, 0},
		{"circular wrapper, rows: the same error", `D2 = "$(D3)"` + "\n" + `D3 = "$(D2)"`, appendixA, nil, urlTable, 0},
		{"rows of another width than the header", appendixAWrappers + "\n" + `V4 = "four"`, appendixA + " $(V4)", nil, &SQLResult{
			Columns: urlTable.Columns,
			Rows:    [][]Field{{{S: "u"}}, {{S: "u"}, {S: "t"}, {S: "d"}, {S: "extra"}}, {{S: "u"}, {S: "t"}, {S: "d"}}, {}},
		}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			header, footer := "$(NLIST) $(D2)", "$(ROW_NUM) rows $(D3)"
			if strings.Contains(c.name, "circular") {
				header, footer = "$(NLIST)", "$(ROW_NUM) rows"
			}
			src := rowReportMacro(c.defines, header, c.row, footer)
			got := checkRowBinding(t, src, c.inputs, c.res)
			if got.wrapped != c.wrapped {
				t.Errorf("%d references bound to a wrapper, want %d", got.wrapped, c.wrapped)
			}
			if strings.Contains(c.name, "no error") && got.err != "" {
				t.Errorf("error %q", got.err)
			}
			if strings.Contains(c.name, "the same error") && !strings.Contains(got.err, "circular") {
				t.Errorf("error %q, want a circular reference", got.err)
			}
		})
	}
}

// project is the result of urlTable's columns cols (1-based), as a SELECT
// list that names them would return it.
func project(cols ...int) *SQLResult {
	res := &SQLResult{}
	for _, c := range cols {
		res.Columns = append(res.Columns, urlTable.Columns[c-1])
	}
	for _, row := range urlTable.Rows {
		var r []Field
		for _, c := range cols {
			r = append(r, row[c-1])
		}
		res.Rows = append(res.Rows, r)
	}
	return res
}

// TestRowMemoNullColumns: a row variable the result has no column for, which
// nothing else answers, is null on every row — so Appendix A's report is
// memoable over the column set of each of the benchmark's four forms — while
// anything that may answer the name keeps the block on the printed path.
func TestRowMemoNullColumns(t *testing.T) {
	narrower := &SQLResult{Columns: []string{"url", "title"}, Rows: [][]Field{{{S: "u"}}, {{S: "v"}, {S: "t"}}}}
	cases := []struct {
		name         string
		defines, row string
		inputs       *cgi.Form
		res          *SQLResult
		memoable     bool
	}{
		{"form 0: url, title", appendixAWrappers, appendixA, nil, project(1, 2), true},
		{"form 1: url, title, description", appendixAWrappers, appendixA, nil, project(1, 2, 3), true},
		{"form 2: url", appendixAWrappers, appendixA, nil, project(1), true},
		{"form 3: url, description", appendixAWrappers, appendixA, nil, project(1, 3), true},
		{"in %ROW itself, with transforms", appendixAWrappers, appendixA + " $(V3) $(@html:V.description) $(@url:V9)", nil, project(1, 2), true},
		{"V3 posted", appendixAWrappers, appendixA, form("V3", "posted $(V1)"), project(1, 2), false},
		{"V3 posted empty", appendixAWrappers, appendixA, form("V3", ""), project(1, 2), false},
		{"%DEFINE V3", appendixAWrappers + "\n" + `V3 = "three"`, appendixA, nil, project(1, 2), false},
		{"an %EXEC variable", appendixAWrappers + "\n" + `E = %EXEC "rc 1"`, appendixA, nil, project(1, 2), false},
		{"V.nosuch posted", appendixAWrappers, appendixA + " $(V.nosuch)", form("V.nosuch", "posted"), project(1, 2, 3), false},
		{"rows narrower than the header", appendixAWrappers, appendixA, nil, narrower, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := checkRowBinding(t, rowReportMacro(c.defines, "$(NLIST)", c.row, "$(ROW_NUM) rows $(D3)"), c.inputs, c.res)
			if got.memoable != c.memoable || got.served != c.memoable {
				t.Errorf("memoable %v, served from the memo %v, want %v", got.memoable, got.served, c.memoable)
			}
		})
	}
}

// rowGen draws reports for the oracle: a %DEFINE section that assigns a few
// names from a small pool (so redefinitions, wrappers of wrappers and
// cycles happen), a %ROW template over those names, a table and a form.
type rowGen struct{ *rand.Rand }

func (g rowGen) pick(xs ...string) string { return xs[g.Intn(len(xs))] }

var rowGenNames = []string{"D1", "D1", "D2", "D2", "D3", "D3", "W", "L", "E", "ROW_NUM", "V2", "V9", "N1", "E_OUTPUT"}

func (g rowGen) statement() string {
	n := g.pick(rowGenNames...)
	col := g.pick("V1", "V2", "V3", "V4", "V9", "V.title", "V.URL", "V.none", "V0", "@html:V2", "@sq:V1", "@url:V3")
	switch g.Intn(24) % 13 { // 12, the %EXEC that unbinds every wrapper, half as often
	case 0, 1:
		return fmt.Sprintf(`%s = ? "<br>$(%s)"`, n, col)
	case 2, 3:
		return fmt.Sprintf(`%s = "[$(%s)|$(%s)]"`, n, col, g.pick("V1", "V2", "@html:V3"))
	case 4:
		return fmt.Sprintf(`%s = ? "$(%s)"`, n, g.pick(rowGenNames...))
	case 5:
		return fmt.Sprintf(`%s = %s ? "$(%s)" : "%s"`, n, g.pick("V1", "V2", "D1", "U"), col, g.pick("", "else"))
	case 12:
		return fmt.Sprintf(`%s = %%EXEC "rc $(%s)"`, n, col)
	case 6, 7:
		return fmt.Sprintf("%%LIST \"%s\" %s\n%s = \"$(%s)\"", g.pick(", ", " $(V1) "), n, n, col)
	case 8:
		return fmt.Sprintf(`%s = "$(V$(one)) $$(%s)"`, n, col)
	case 9:
		return fmt.Sprintf(`%s = "%s"`, n, g.pick("", "text", "a<b"))
	case 10:
		return fmt.Sprintf(`%s = ? "$(%s)$(U)"`, n, col)
	}
	return fmt.Sprintf(`%s = "$(%s) $(ROW_NUM) $(N1)"`, n, col)
}

func (g rowGen) template(refs int) string {
	var b strings.Builder
	for i := 0; i < refs; i++ {
		b.WriteString(g.pick("", " ", "<LI>", "&"))
		switch g.Intn(8) {
		case 0:
			b.WriteString("$(" + g.pick("V1", "V2", "V.title", "V9", "ROW_NUM", "VLIST", "N1", "NLIST", "U") + ")")
		case 1:
			b.WriteString("$(D$(one))")
		default:
			b.WriteString("$(" + g.pick("", "", "", "@html:", "@url:", "@sq:") + g.pick(rowGenNames...) + ")")
		}
	}
	return b.String()
}

func (g rowGen) table() *SQLResult {
	res := &SQLResult{}
	for i, n := 0, 1+g.Intn(4); i < n; i++ {
		res.Columns = append(res.Columns, g.pick("url", "title", "description", "Title", "none"))
	}
	for i, n := 0, g.Intn(7); i < n; i++ {
		width := len(res.Columns)
		if g.Intn(12) == 0 {
			width += g.Intn(3) - 1
		}
		row := make([]Field, width)
		for j := range row {
			switch g.Intn(4) {
			case 0:
				row[j].Null = true
			case 1: // the empty string: null to a conditional like NULL, but not NULL
			default:
				row[j].S = g.pick("x", "http://h/?q=1&r=2", "it's <b>", "$(D1)", "0")
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func (g rowGen) form() *cgi.Form {
	f := cgi.NewForm()
	for i, n := 0, g.Intn(3); i < n; i++ {
		switch g.Intn(3) {
		case 0:
			f.Add(g.pick("RPT_MAXROWS", "RPT_STARTROW"), g.pick("1", "2", "3"))
		default:
			f.Add(g.pick(rowGenNames...), g.pick("posted", "", "$(V1)!", "$(D1)"))
		}
	}
	return f
}

// boundTemplate is a %ROW template of references bind resolves where the
// definitions let it: columns, and names a definition may make a wrapper.
func (g rowGen) boundTemplate(refs int) string {
	var b strings.Builder
	for i := 0; i < refs; i++ {
		b.WriteString(g.pick("", " ", "<LI>", "&"))
		b.WriteString("$(" + g.pick("", "", "@html:", "@url:", "@sq:") + g.pick("V1", "V2", "V.title", "D1", "D2", "D3", "W") + ")")
	}
	return b.String()
}

func (g rowGen) macro(row func(refs int) string) string {
	defines := []string{`one = "1"`}
	for i, n := 0, 1+g.Intn(7); i < n; i++ {
		defines = append(defines, g.statement())
	}
	return rowReportMacro(strings.Join(defines, "\n"), g.template(g.Intn(3)), row(1+g.Intn(6)), g.template(g.Intn(3)))
}

// TestRowBindingMatchesByNameGenerated is the same law over generated
// reports, each rendered printed, into the memo and from it: per seed one
// report of any %ROW template and one whose template bind may resolve
// whole. The generator must keep reaching the bound path and the memo: a
// run that binds no wrapper, or serves no report from a memo, proves
// nothing.
func TestRowBindingMatchesByNameGenerated(t *testing.T) {
	wrapped, failed, served := 0, 0, 0
	for seed := int64(1); seed <= 3000; seed++ {
		g := rowGen{rand.New(rand.NewSource(seed))}
		for _, row := range []func(int) string{g.template, g.boundTemplate} {
			got := checkRowBinding(t, g.macro(row), g.form(), g.table())
			wrapped += got.wrapped
			if got.err != "" {
				failed++
			}
			if got.served {
				served++
			}
		}
	}
	t.Logf("6000 reports: %d references bound to a wrapper, %d reports ending in an error, %d served from a memo",
		wrapped, failed, served)
	if wrapped < 300 || failed < 30 || served < 300 {
		t.Errorf("the generator has drifted away from what it is meant to exercise")
	}
}

// TestRowMemoServedOnlyUnderItsKey renders a sequence of reports on one
// result, each against the by-name reference, where the memo must not serve
// what the key does not pin: a %ROW block that reads a request variable, a
// row of another width, another window of rows, another macro.
func TestRowMemoServedOnlyUnderItsKey(t *testing.T) {
	parse := func(row string) *Macro {
		m, err := Parse("memo.d2w", rowReportMacro(appendixAWrappers, "$(NLIST)", row, "$(ROW_NUM) rows"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := parse(appendixA), parse(appendixA+" $(V2)")
	var many, manyRefs []string // more row wrappers than a request record holds
	for i := 0; i < 130; i++ {
		many, manyRefs = append(many, fmt.Sprintf(`W%d = ? "<b>$(V%d)</b>"`, i, 1+i%3)), append(manyRefs, fmt.Sprintf("$(W%d)", i))
	}
	tooMany, err := Parse("memo.d2w", rowReportMacro(strings.Join(many, "\n"), "", strings.Join(manyRefs, " "), ""))
	if err != nil {
		t.Fatal(err)
	}
	reloaded := parse(appendixA)
	ragged := &SQLResult{Columns: urlTable.Columns, Rows: append([][]Field{{{S: "u"}}}, urlTable.Rows...)}
	type rendering struct {
		m      *Macro
		inputs *cgi.Form
		served bool
	}
	never := func(m *Macro, inputs ...*cgi.Form) []rendering {
		if len(inputs) == 0 {
			inputs = []*cgi.Form{nil}
		}
		var rs []rendering
		for i := 0; i < 4; i++ {
			rs = append(rs, rendering{m, inputs[i%len(inputs)], false})
		}
		return rs
	}
	cases := []struct {
		name       string
		res        *SQLResult
		renderings []rendering
	}{
		{"the key holds", urlTable, []rendering{{a, nil, false}, {a, nil, false}, {a, nil, true}, {a, nil, true}}},
		{"filled while V3 was undefined, then V3 is posted", project(1, 2), []rendering{
			{a, nil, false}, {a, nil, false}, {a, nil, true}, {a, form("V3", "posted"), false}, {a, nil, true}}},
		{"an HTML input shadows D2", urlTable, never(a, form("D2", "posted $(V1)"))},
		{"ROW_NUM inside %ROW", urlTable, never(parse(appendixA + " $(ROW_NUM)"))},
		{"VLIST inside %ROW", urlTable, never(parse(appendixA + " $(VLIST)"))},
		{"N1 inside %ROW", urlTable, never(parse(appendixA + " $(N1)"))},
		{"a row of another width", ragged, never(a)},
		{"130 wrappers in %ROW", urlTable, never(tooMany)},
		{"RPT_STARTROW changes", urlTable, never(a, form("RPT_STARTROW", "1"), form("RPT_STARTROW", "2"))},
		{"RPT_MAXROWS changes", urlTable, never(a, form("RPT_MAXROWS", "3"), form("RPT_MAXROWS", "0"))},
		{"two macros share one result", urlTable, []rendering{{a, nil, false}, {b, nil, false}, {a, nil, false}, {b, nil, false}}},
		{"a reloaded macro replaces the memo", urlTable, []rendering{
			{a, nil, false}, {a, nil, false}, {a, nil, true}, {reloaded, nil, false}, {reloaded, nil, true}, {a, nil, false}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := &SQLResult{Columns: c.res.Columns, Rows: c.res.Rows}
			for i, r := range c.renderings {
				want := renderReport(t, r.m, r.inputs, res, referenceRenderCustom)
				got := renderReport(t, r.m, r.inputs, res, (*macroRun).renderCustom)
				if got.page != want.page || got.err != want.err || got.vars != want.vars {
					t.Fatalf("rendering %d differs from by-name\npage  %q\nwant  %q\nerror %q\nwant  %q\nrecord\n%swant\n%s",
						i+1, got.page, want.page, got.err, want.err, got.vars, want.vars)
				}
				if got.served != r.served {
					t.Fatalf("rendering %d served from the memo: %v, want %v", i+1, got.served, r.served)
				}
			}
		})
	}
	// Two macros built over one %SQL section — one %ROW template — that
	// define its wrapper differently: the wrapper is part of the key.
	t.Run("one %ROW template under two wrappers", func(t *testing.T) {
		parse := func(wrapper string) *Macro {
			m, err := Parse("memo.d2w", rowReportMacro("D2 = ? \""+wrapper+"\"", "", "$(V1) $(D2)", "")+
				"%HTML_REPORT{%EXEC_SQL%}\n")
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		br, i := parse("<br>$(V2)"), parse("<i>$(V2)</i>")
		i.Sections[1] = br.Sections[1]
		render := func(m *Macro, res *SQLResult) string {
			var page bytes.Buffer
			if err := (&Engine{DB: oneResult{res}}).Run(m, ModeReport, nil, &page); err != nil {
				t.Fatal(err)
			}
			return page.String()
		}
		fresh := func() *SQLResult { return &SQLResult{Columns: urlTable.Columns, Rows: urlTable.Rows} }
		want := map[*Macro]string{br: render(br, fresh()), i: render(i, fresh())}
		if !strings.Contains(want[br], "<br>A & <B>") || !strings.Contains(want[i], "<i>A & <B></i>") {
			t.Fatalf("pages %q and %q", want[br], want[i])
		}
		shared := fresh()
		for n, m := range []*Macro{br, i, br, i, br} {
			if page := render(m, shared); page != want[m] {
				t.Fatalf("rendering %d:\n%q\nwant\n%q", n+1, page, want[m])
			}
		}
	})
}

// TestRowMemoConcurrent: eight goroutines render one shared result, as
// concurrent hits of one cache entry do — filling, publishing and reading
// its memo under -race — and every page is the one the report prints.
func TestRowMemoConcurrent(t *testing.T) {
	m, err := Parse("memo.d2w", rowReportMacro(appendixAWrappers, "$(NLIST)", appendixA, "$(ROW_NUM) rows")+"%HTML_REPORT{%EXEC_SQL%}\n")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Field, 200)
	for i := range rows {
		rows[i] = urlTable.Rows[i%len(urlTable.Rows)]
	}
	render := func(res *SQLResult) string {
		var page bytes.Buffer
		if err := (&Engine{DB: oneResult{res}}).Run(m, ModeReport, nil, &page); err != nil {
			t.Error(err)
		}
		return page.String()
	}
	want := render(&SQLResult{Columns: urlTable.Columns, Rows: rows})
	shared := &SQLResult{Columns: urlTable.Columns, Rows: rows}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if page := render(shared); page != want {
					t.Errorf("a concurrent rendering differs from the report:\n%q\nwant\n%q", page, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if shared.MemoBytes() == 0 {
		t.Error("400 renderings of one result left no memo on it")
	}
}

// oneResult is a provider whose connections answer every statement with
// one result, as a cache answers every hit of one entry.
type oneResult struct{ res *SQLResult }

func (p oneResult) Connect(_, _, _ string) (DBConn, error) { return p, nil }
func (p oneResult) Execute(string) (*SQLResult, error)     { return p.res, nil }
func (oneResult) Begin() error                             { return nil }
func (oneResult) Commit() error                            { return nil }
func (oneResult) Rollback() error                          { return nil }
func (oneResult) Close() error                             { return nil }
