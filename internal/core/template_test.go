package core

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"db2www/internal/cgi"
)

// TestNestedReference pins the late-evaluated $(A$(B)) form in the
// engine: the inner reference is substituted first and the text it
// spells names the variable to read — what ParseTemplate and the linter
// have always said the form means.
func TestNestedReference(t *testing.T) {
	m := mustParse(t, `
%define{
B = "1"
A1 = "hit"
P = "@html:"
raw = "<b>"
sel = "raw"
%}
%HTML_INPUT{[$(A$(B))] [$(A$(missing))] [$(@html:$(sel))] [$($(P)raw)] [$(A$(B$(missing)))] [$$(A$(B))]%}
`)
	got := runMacro(t, &Engine{}, m, ModeInput, nil)
	want := "[hit] [] [&lt;b&gt;] [&lt;b&gt;] [hit] [$(A$(B))]"
	if got != want {
		t.Fatalf("got  %q\nwant %q", got, want)
	}
}

// TestNestedReferenceCycle: a cycle through a computed name is still an
// error, not a stack overflow.
func TestNestedReferenceCycle(t *testing.T) {
	m := mustParse(t, `
%define{
n = "1"
X1 = "$(X$(n))"
%}
%HTML_INPUT{$(X1)%}
`)
	var buf bytes.Buffer
	err := (&Engine{}).Run(m, ModeInput, nil, &buf)
	if err == nil || !strings.Contains(err.Error(), "circular reference") {
		t.Fatalf("err = %v, want a circular reference error", err)
	}
}

// TestReferenceNestingIsBounded: a "$(" nested deeper than maxRefNesting
// levels is literal text of the reference around it, in the engine, in
// ParseTemplate and in referenceExpand alike; and a form value of nested
// "$(", which is compiled for references on every request, costs per byte
// at 800 KB at most 3× what it costs at 10 KB (before the bound it was
// O(k²) byte steps: 10 KB took 31 ms, 800 KB 139 s).
func TestReferenceNestingIsBounded(t *testing.T) {
	nest := func(k int) string { return strings.Repeat("$(", k) + "x" + strings.Repeat(")", k) }
	vt := NewVarTable("t", nil)
	vt.ApplyDefine(&DefineSection{Stmts: []DefineStmt{{Kind: DefSimple, Name: "x", Value: "x"}}})
	for k, want := range map[int]string{1: "x", maxRefNesting: "x", maxRefNesting + 1: ""} {
		got, err := vt.Expand(nest(k))
		if spec := referenceExpand(nest(k), map[string]string{"x": "x"}, 1); err != nil || got != want || spec != want {
			t.Errorf("%d levels: Expand = %q, %v; referenceExpand = %q; want %q", k, got, err, spec, want)
		}
		refs, _, _ := ParseTemplate(nest(k))
		if last := refs[0]; len(refs) != min(k, maxRefNesting) || last.Dynamic != (k > maxRefNesting) {
			t.Errorf("%d levels: ParseTemplate = %+v", k, refs)
		}
	}

	perByte := func(size, runs int) float64 {
		k := (size - 1) / 3
		form := cgi.NewForm()
		form.Add("in", nest(k))
		best := time.Duration(1 << 62)
		for i := 0; i < runs; i++ {
			vt := NewVarTable("t", form)
			start := time.Now()
			if _, err := vt.Lookup("in"); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return float64(best) / float64(3*k+1)
	}
	small, large := perByte(10_000, 50), perByte(800_000, 3)
	t.Logf("compile + expand: %.1f ns/byte at 10 KB, %.1f at 800 KB", small, large)
	if large > 3*small {
		t.Errorf("per byte, 800 KB costs %.1f× what 10 KB costs, want at most 3×", large/small)
	}
}

// derefChain returns a form body of at least size bytes whose fields chain:
// a0=$(a1)&a1=$(a2)&…, the last one "x".
func derefChain(size int) string {
	var b strings.Builder
	for i := 0; b.Len() < size; i++ {
		fmt.Fprintf(&b, "a%d=$(a%d)&", i, i+1)
	}
	return b.String() + "z=x"
}

// TestDereferenceChainIsBounded: a chain of form fields, each referring to
// the next, is followed through at most maxDerefDepth variables and fails
// past them as a circular reference does; so decoding a body and
// evaluating the head of its chain costs per byte at 1 MiB at most 3× what
// it costs at 10 KB (it was quadratic: 16 000 fields, ≈ 220 KB, took 1.6 s).
func TestDereferenceChainIsBounded(t *testing.T) {
	for fields, ok := range map[int]bool{maxDerefDepth: true, maxDerefDepth + 1: false} {
		form := cgi.NewForm()
		for i := 0; i < fields-1; i++ {
			form.Add(fmt.Sprintf("a%d", i), fmt.Sprintf("$(a%d)", i+1))
		}
		form.Add(fmt.Sprintf("a%d", fields-1), "x")
		got, err := NewVarTable("t", form).Lookup("a0")
		if ok && (err != nil || got != "x") || !ok && (err == nil || !strings.Contains(err.Error(), "reference chain deeper than")) {
			t.Errorf("a chain of %d fields: %q, %v", fields, got, err)
		}
	}

	perByte := func(size, runs int) float64 {
		body := derefChain(size)
		best := time.Duration(1 << 62)
		for i := 0; i < runs; i++ {
			start := time.Now()
			form, err := cgi.ParseForm(body)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewVarTable("t", form).Lookup("a0"); err == nil {
				t.Fatalf("a %d-byte chain evaluated without an error", len(body))
			}
			best = min(best, time.Since(start))
		}
		return float64(best) / float64(len(body))
	}
	small, large := perByte(10_000, 50), perByte(1<<20-64, 3)
	t.Logf("decode + dereference: %.1f ns/byte at 10 KB, %.1f at 1 MiB", small, large)
	if large > 3*small {
		t.Errorf("per byte, 1 MiB costs %.1f× what 10 KB costs, want at most 3×", large/small)
	}
}

// TestDereferenceFanOutIsBounded: form fields that each dereference the
// next twice, a0=$(a1)$(a1)&a1=$(a2)$(a2)&…, double the work per field — 20
// fields took 0.6 s even when every chain ended null. At a size within the
// bounds the expansion is what it always was; at 40 fields, with a 1-byte
// leaf and with every chain ending null, the reference fails after at most
// maxDerefs dereferences, and with a 1 MiB leaf after maxRefBytes bytes,
// instead of asking for 2⁴⁰ of either.
func TestDereferenceFanOutIsBounded(t *testing.T) {
	fanOut := func(fields int, leaf string) *cgi.Form {
		form := cgi.NewForm()
		for i := 0; i < fields; i++ {
			form.Add(fmt.Sprintf("a%d", i), fmt.Sprintf("$(a%d)$(a%d)", i+1, i+1))
		}
		if leaf != "" {
			form.Add(fmt.Sprintf("a%d", fields), leaf)
		}
		return form
	}
	// 2¹³-1 dereferences, 2¹² bytes.
	if got, err := NewVarTable("t", fanOut(12, "x")).Lookup("a0"); err != nil || got != strings.Repeat("x", 1<<12) {
		t.Fatalf("12 fields: %d bytes, %v", len(got), err)
	}
	for _, leaf := range []string{"x", "", strings.Repeat("y", 1<<20)} {
		start := time.Now()
		vt := NewVarTable("t", fanOut(40, leaf))
		got, err := vt.Lookup("a0")
		if err == nil || !strings.Contains(err.Error(), "reference makes more than") || time.Since(start) > time.Second {
			t.Errorf("40 fields, a %d-byte leaf: %d bytes, %v after %v", len(leaf), len(got), err, time.Since(start))
		}
		// The 1 MiB leaf meets the byte bound first, the 1-byte one the
		// dereference bound.
		if leaf != "" && (vt.derefs > maxDerefs) == (len(leaf) > 1) {
			t.Errorf("40 fields, a %d-byte leaf: stopped after %d dereferences", len(leaf), vt.derefs)
		}
	}
}

// TestUnterminatedReferenceIsLiteral: from an unterminated "$(" on, the
// text is emitted as written — including the case only the balanced
// scanner sees, an outer reference left open around a closed inner one.
func TestUnterminatedReferenceIsLiteral(t *testing.T) {
	vt := NewVarTable("t", nil)
	vt.ApplyDefine(&DefineSection{Stmts: []DefineStmt{{Kind: DefSimple, Name: "a", Value: "va"}}})
	for tpl, want := range map[string]string{
		"x $(a) $(open":     "x va $(open",
		"$(outer $(a)":      "$(outer $(a)",
		"$(a)$$(esc":        "va$$(esc",
		"price $5 $a $(a)$": "price $5 $a va$",
	} {
		if got, err := vt.Expand(tpl); err != nil || got != want {
			t.Errorf("Expand(%q) = %q, %v; want %q", tpl, got, err, want)
		}
	}
}

// stubRows is a DBProvider whose every statement returns one fixed result.
type stubRows struct{ res *SQLResult }

func (s stubRows) Connect(_, _, _ string) (DBConn, error) { return s, nil }
func (s stubRows) Execute(string) (*SQLResult, error)     { return s.res, nil }
func (stubRows) Begin() error                             { return nil }
func (stubRows) Commit() error                            { return nil }
func (stubRows) Rollback() error                          { return nil }
func (stubRows) Close() error                             { return nil }

// TestRowPathAllocations is the allocation ceiling of the report row
// path: the Appendix A macro (its %ROW template reads V1 by ordinal and
// V2/V3 through the conditional variables D2/D3) over a 2 000-row result
// allocates at most one object per rendered row, everything else of the
// request included.
func TestRowPathAllocations(t *testing.T) {
	src, err := os.ReadFile("../../testdata/macros/urlquery.d2w")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse("urlquery.d2w", string(src))
	if err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	res := &SQLResult{Columns: []string{"url", "title", "description"}}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, []Field{
			{S: fmt.Sprintf("http://www.example%d.com/", i)},
			{S: fmt.Sprintf("Title %d <&>", i)},
			{Null: i%7 == 0, S: "words about the page"},
		})
	}
	e := &Engine{DB: stubRows{res}}
	inputs := cgi.NewForm()
	inputs.Add("DBFIELDS", "title")
	inputs.Add("DBFIELDS", "description")
	var page bytes.Buffer
	render := func() {
		page.Reset()
		if err := e.Run(m, ModeReport, inputs, &page); err != nil {
			t.Fatal(err)
		}
	}
	render()
	if n := strings.Count(page.String(), "<LI> <A HREF="); n != rows {
		t.Fatalf("rendered %d rows, want %d", n, rows)
	}
	if allocs := testing.AllocsPerRun(5, render); allocs > rows {
		t.Errorf("%.0f allocations for a %d-row report, want at most one per row", allocs, rows)
	} else {
		t.Logf("%.0f allocations for a %d-row report", allocs, rows)
	}
}
