package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"db2www/internal/cgi"
	"db2www/internal/obs"
)

// referenceRenderCustom is renderCustom without bind: every reference of
// every row is evaluated by name — scope walk, %EXEC outputs, HTML input
// variables, definitions — through appendParts' generic path. It is the
// specification the bound path is held to.
func referenceRenderCustom(r *macroRun, rb *ReportBlock, res *SQLResult) error {
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
}

// renderReport renders the one %SQL_REPORT block of m over res, the
// definitions applied and inputs posted, through render.
func renderReport(t testing.TB, m *Macro, inputs *cgi.Form, res *SQLResult,
	render func(*macroRun, *ReportBlock, *SQLResult) error) reportOutcome {
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
	if err := render(run, rb, res); err != nil {
		out.err = err.Error()
	}
	out.page = page.String()
	for _, v := range vt.trace.Vars {
		out.vars += fmt.Sprintf("%s %s ×%d depth %d null %v\n", v.Name, v.Source, v.Count, v.MaxDepth, v.Null)
	}
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

func checkRowBindingOf(t testing.TB, m *Macro, src string, inputs *cgi.Form, res *SQLResult) reportOutcome {
	t.Helper()
	got := renderReport(t, m, inputs, res, (*macroRun).renderCustom)
	want := renderReport(t, m, inputs, res, referenceRenderCustom)
	if got.page != want.page || got.err != want.err || got.vars != want.vars {
		t.Fatalf("bound and by-name rendering differ\nmacro:\n%s\ninputs %q\ncolumns %q rows %v\n"+
			"page  %q\nwant  %q\nerror %q\nwant  %q\nrecord\n%swant\n%s",
			src, inputs.Encode(), res.Columns, res.Rows, got.page, want.page, got.err, want.err, got.vars, want.vars)
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

// TestRowBindingMatchesByName: the page and the request's record are the
// same whether %ROW's references are bound once per report or looked up by
// name on every row — on the cases a binding could get wrong, each with
// the number of references it is expected to bind to a %DEFINE wrapper.
func TestRowBindingMatchesByName(t *testing.T) {
	const appendixA = `<LI> <A HREF="$(V1)">$(V1)</A> $(D2) $(D3)`
	wide := &SQLResult{Columns: []string{"title", "x", "TITLE"}, Rows: [][]Field{{{S: "first"}, {S: "x"}, {S: "last"}}}}
	cases := []struct {
		name    string
		defines string
		row     string
		inputs  *cgi.Form
		res     *SQLResult
		wrapped int
	}{
		{"appendix A", `D2 = ? "<br>$(V2)"` + "\n" + `D3 = ? "<br>$(V3)"`, appendixA, nil, urlTable, 2},
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
		{"ordinal beyond the width", `D2 = ? "<br>$(V4)"` + "\n" + `D3 = "$(V3)$(V0)"` + "\n" + `V7 = "seven $(V1)"`, appendixA + " $(V4) $(V7)", nil, urlTable, 1},
		{"duplicate column names: the later wins", `D2 = ? "$(V.title)/$(V.Title)/$(V.x)"` + "\n" + `D3 = "$(V.none)"`, "$(D2) $(V.TITLE) $(D3)", nil, wide, 1},
		{"a posted wrapper name wins", `D2 = ? "<br>$(V2)"` + "\n" + `D3 = ? "<br>$(V3)"`, appendixA, form("D2", "posted $(V1)", "D3", ""), urlTable, 0},
		{"names the report scope answers", `ROW_NUM = "$(V1)"` + "\n" + `VLIST = "$(V1)"` + "\n" + `N2 = "$(V1)"` + "\n" + `N9 = "$(V1)"` + "\n" + `V2 = "$(V1)"`, "$(ROW_NUM) $(VLIST) $(N2) $(N9) $(V2)", nil, urlTable, 1},
		{"late-evaluated and escaped references", `one = "2"` + "\n" + `D2 = "$(V$(one))"` + "\n" + `D3 = "$$(V3) $(V3)"`, appendixA + " $(D$(one)) $$(D2)", nil, urlTable, 1},
		{"literal wrapper and empty wrapper", `D2 = "text"` + "\n" + `D3 = ""`, appendixA, nil, urlTable, 2},
		{"paging by definition", `RPT_MAXROWS = "2"` + "\n" + `RPT_STARTROW = "2"` + "\n" + `D2 = ? "<br>$(V2)"`, appendixA, nil, urlTable, 1},
		{"paging past the end", `D2 = ? "<br>$(V2)"`, appendixA, form("RPT_STARTROW", "9", "RPT_MAXROWS", "1"), urlTable, 1},
		{"circular wrapper, no rows: no error", `D2 = "$(D3)"` + "\n" + `D3 = "$(D2)"`, appendixA, nil, &SQLResult{Columns: urlTable.Columns}, 0},
		{"circular wrapper, rows: the same error", `D2 = "$(D3)"` + "\n" + `D3 = "$(D2)"`, appendixA, nil, urlTable, 0},
		{"rows of another width than the header", `D2 = ? "<br>$(V2)"` + "\n" + `D3 = ? "<br>$(V3)"` + "\n" + `V4 = "four"`, appendixA + " $(V4)", nil, &SQLResult{
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

func (g rowGen) macro() string {
	defines := []string{`one = "1"`}
	for i, n := 0, 1+g.Intn(7); i < n; i++ {
		defines = append(defines, g.statement())
	}
	return rowReportMacro(strings.Join(defines, "\n"), g.template(g.Intn(3)), g.template(1+g.Intn(6)), g.template(g.Intn(3)))
}

// TestRowBindingMatchesByNameGenerated is the same law over generated
// reports. The generator must keep reaching the bound path: a run that
// binds no wrapper proves nothing.
func TestRowBindingMatchesByNameGenerated(t *testing.T) {
	wrapped, failed := 0, 0
	for seed := int64(1); seed <= 3000; seed++ {
		g := rowGen{rand.New(rand.NewSource(seed))}
		got := checkRowBinding(t, g.macro(), g.form(), g.table())
		wrapped += got.wrapped
		if got.err != "" {
			failed++
		}
	}
	t.Logf("3000 reports: %d references bound to a wrapper, %d reports ending in an error", wrapped, failed)
	if wrapped < 300 || failed < 30 {
		t.Errorf("the generator has drifted away from what it is meant to exercise")
	}
}
