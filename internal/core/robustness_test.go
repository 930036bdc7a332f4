package core

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestMacroParseNeverPanics assembles macro soup from real fragments and
// checks the parser always returns instead of panicking.
func TestMacroParseNeverPanics(t *testing.T) {
	fragments := []string{
		"%DEFINE", "%define{", "%}", "%SQL", "%SQL(q)", "{", "}",
		"%HTML_INPUT{", "%HTML_REPORT{", "%EXEC_SQL", "%EXEC_SQL(q)",
		"%SQL_REPORT{", "%SQL_MESSAGE{", "%ROW{", "%LIST", "%EXEC",
		"a = \"v\"", "a = ?", "?", ":", "\"text\"", "$(x)", "$$(y)",
		"plain text", "%{ comment %}", "%INCLUDE \"x\"", "=", "SELECT 1",
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(10)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(fragments[rng.Intn(len(fragments))])
			sb.WriteByte('\n')
		}
		src := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", src, r)
				}
			}()
			_, _ = Parse("fuzz.d2w", src)
		}()
	}
}

// TestMacroRunNeverPanicsOnParsedInput runs whatever parses from the soup
// above through both engine modes: processing must return, not panic.
func TestMacroRunNeverPanicsOnParsedInput(t *testing.T) {
	fragments := []string{
		"%define a = \"$(b)\"\n", "%define b = \"2\"\n",
		"%define c = a ? \"t\" : \"f\"\n", "%define d = ? \"$(zz)\"\n",
		"%DEFINE{\n%list \",\" l\nl = \"1\"\nl = \"2\"\n%}\n",
		"%HTML_INPUT{hi $(a)$(l)%}\n", "%HTML_REPORT{$(c)%}\n",
		"%{ note %}\n",
	}
	rng := rand.New(rand.NewSource(17))
	e := &Engine{}
	for trial := 0; trial < 1500; trial++ {
		n := rng.Intn(6)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(fragments[rng.Intn(len(fragments))])
		}
		m, err := Parse("fuzz.d2w", sb.String())
		if err != nil {
			continue
		}
		for _, mode := range []Mode{ModeInput, ModeReport} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Run(%q) panicked: %v", sb.String(), r)
					}
				}()
				var buf bytes.Buffer
				_ = e.Run(m, mode, nil, &buf)
			}()
		}
	}
}

// TestExpandNeverPanicsOnRandomTemplates exercises the substitution
// scanner with arbitrary text including stray $, $(, $$( sequences.
func TestExpandNeverPanicsOnRandomTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	chars := []byte(`ab$()x{}%"'`)
	vt := NewVarTable("fuzz", nil)
	vt.ApplyDefine(&DefineSection{Stmts: []DefineStmt{
		{Kind: DefSimple, Name: "a", Value: "val"},
	}})
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = chars[rng.Intn(len(chars))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Expand(%q) panicked: %v", b, r)
				}
			}()
			_, _ = vt.Expand(string(b))
		}()
	}
}

// TestDeepNestingDepth verifies long (non-circular) reference chains work.
func TestDeepNestingDepth(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("%define{\nv0 = \"end\"\n")
	for i := 1; i <= 200; i++ {
		sb.WriteString("v")
		sb.WriteString(strconv.Itoa(i))
		sb.WriteString(" = \"$(v")
		sb.WriteString(strconv.Itoa(i - 1))
		sb.WriteString(")\"\n")
	}
	sb.WriteString("%}\n%HTML_INPUT{$(v200)%}")
	m, err := Parse("deep.d2w", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if strings.TrimSpace(out) != "end" {
		t.Fatalf("got %q", out)
	}
}

// TestSpecialReportVariableContents pins NLIST/VLIST formatting.
func TestSpecialReportVariableContents(t *testing.T) {
	src := `
%define DATABASE = "D"
%SQL{SELECT url, title FROM urldb
%SQL_REPORT{[$(NLIST)]
%ROW{<$(VLIST)>
%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
`
	m := mustParse(t, src)
	p := &fakeProvider{results: twoColResult()}
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, nil)
	if !strings.Contains(out, "[url, title]") {
		t.Errorf("NLIST = %q", out)
	}
	if !strings.Contains(out, "<http://a, Alpha>") {
		t.Errorf("VLIST missing: %q", out)
	}
	// NULL column value joins as empty string.
	if !strings.Contains(out, "<http://c, >") {
		t.Errorf("VLIST with NULL: %q", out)
	}
}
