package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"db2www/internal/cgi"
)

func runIf(t *testing.T, src string, inputs *cgi.Form) string {
	t.Helper()
	m := mustParse(t, src)
	return runMacro(t, &Engine{}, m, ModeInput, inputs)
}

func TestIfTruthiness(t *testing.T) {
	src := `%HTML_INPUT{%IF($(flag))YES%ELSE-NO%ENDIF%}`
	in := cgi.NewForm()
	in.Add("flag", "anything")
	if got := strings.TrimSpace(runIf(t, src, in)); got != "YES" {
		t.Fatalf("truthy: %q", got)
	}
	if got := strings.TrimSpace(runIf(t, src, nil)); got != "-NO" {
		t.Fatalf("falsy: %q", got)
	}
	empty := cgi.NewForm()
	empty.Add("flag", "")
	if got := strings.TrimSpace(runIf(t, src, empty)); got != "-NO" {
		t.Fatalf("null string must be false: %q", got)
	}
}

func TestIfComparisons(t *testing.T) {
	cases := []struct {
		cond string
		val  string
		want bool
	}{
		{`$(x) == "abc"`, "abc", true},
		{`$(x) == "abc"`, "abd", false},
		{`$(x) != "abc"`, "abd", true},
		{`$(x) < 10`, "9", true},
		{`$(x) < 10`, "10", false},
		{`$(x) >= 10`, "10", true},
		// Numeric comparison when both sides are numbers: "9" < "10".
		{`$(x) < 10`, "9.5", true},
		// String comparison when either side is non-numeric.
		{`$(x) < "b"`, "a", true},
		{`$(x) > "b"`, "a", false},
		// Only finite decimals are numbers: NaN and Inf in any spelling
		// are text, which no number equals and which orders as text.
		{`$(x) == 5`, "5.0", true},
		{`$(x) <= 5`, " 5e0 ", true},
		{`$(x) == 5`, "NaN", false},
		{`$(x) <= 1`, "NaN", false},
		{`$(x) < 1`, "NaN", false},
		{`$(x) != 5`, "nan", true},
		{`$(x) == 5`, "nan", false},
		{`$(x) > 5`, "Inf", true},
		{`$(x) == "Inf"`, "Inf", true},
		{`$(x) > 1e308`, "Infinity", true},
		{`$(x) == 5`, "Infinity", false},
		{`$(x) < 1`, "-Inf", true},
		{`$(x) == 5`, "abc", false},
		{`$(x) > 5`, "abc", true},
		{`$(x) == 16`, "0x10", false},
		{`$(x) == 1`, "1e400", false},
	}
	for _, c := range cases {
		src := "%HTML_INPUT{%IF(" + c.cond + ")[T]%ELSE[F]%ENDIF%}"
		in := cgi.NewForm()
		in.Add("x", c.val)
		got := strings.TrimSpace(runIf(t, src, in))
		want := "[F]"
		if c.want {
			want = "[T]"
		}
		if got != want {
			t.Errorf("%s with x=%q: got %q, want %q", c.cond, c.val, got, want)
		}
	}
}

func TestIfElifChain(t *testing.T) {
	src := `%HTML_INPUT{%IF($(n) == 1)one%ELIF($(n) == 2)two%ELIF($(n) == 3)three%ELSE many%ENDIF%}`
	for val, want := range map[string]string{"1": "one", "2": "two", "3": "three", "9": "many"} {
		in := cgi.NewForm()
		in.Add("n", val)
		if got := strings.TrimSpace(runIf(t, src, in)); got != want {
			t.Errorf("n=%s: got %q, want %q", val, got, want)
		}
	}
}

func TestIfNested(t *testing.T) {
	src := `%HTML_INPUT{%IF($(a))A%IF($(b))B%ELSE!B%ENDIF%ELSE!A%ENDIF%}`
	in := cgi.NewForm()
	in.Add("a", "1")
	in.Add("b", "1")
	if got := strings.TrimSpace(runIf(t, src, in)); got != "AB" {
		t.Fatalf("a,b: %q", got)
	}
	in2 := cgi.NewForm()
	in2.Add("a", "1")
	if got := strings.TrimSpace(runIf(t, src, in2)); got != "A!B" {
		t.Fatalf("a only: %q", got)
	}
	if got := strings.TrimSpace(runIf(t, src, nil)); got != "!A" {
		t.Fatalf("neither: %q", got)
	}
}

func TestIfWithoutElse(t *testing.T) {
	src := `%HTML_INPUT{pre %IF($(x))mid %ENDIF post%}`
	if got := strings.TrimSpace(runIf(t, src, nil)); got != "pre  post" {
		t.Fatalf("got %q", got)
	}
}

// TestIfGuardsExecSQL: %EXEC_SQL inside an %IF only runs when the arm is
// taken — conditional database access with no application code.
func TestIfGuardsExecSQL(t *testing.T) {
	src := `
%define DATABASE = "D"
%SQL(q1){SELECT 1%}
%SQL(q2){SELECT 2%}
%HTML_REPORT{%IF($(which) == "first")%EXEC_SQL(q1)%ELSE%EXEC_SQL(q2)%ENDIF%}
`
	m := mustParse(t, src)
	for which, wantSQL := range map[string]string{"first": "SELECT 1", "second": "SELECT 2"} {
		p := &fakeProvider{}
		in := cgi.NewForm()
		in.Add("which", which)
		runMacro(t, &Engine{DB: p}, m, ModeReport, in)
		if len(p.log) != 1 || p.log[0] != wantSQL {
			t.Errorf("which=%s: executed %v, want only %q", which, p.log, wantSQL)
		}
	}
}

func TestIfParseErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"unterminated if", "%HTML_INPUT{%IF($(x))yes%}", "without a matching %ENDIF"},
		{"endif without if", "%HTML_INPUT{%ENDIF%}", "without a matching %IF"},
		{"else without if", "%HTML_INPUT{%ELSE%}", "without a matching %IF"},
		{"elif after else", "%HTML_INPUT{%IF($(x))a%ELSE b%ELIF($(y))c%ENDIF%}", "after %ELSE"},
		{"double else", "%HTML_INPUT{%IF($(x))a%ELSE b%ELSE c%ENDIF%}", "duplicate %ELSE"},
		{"missing condition", "%HTML_INPUT{%IF yes%ENDIF%}", "parenthesised argument"},
		{"unterminated condition", "%HTML_INPUT{%IF($(x)%ENDIF%}", "unterminated"},
	}
	for _, c := range cases {
		_, err := Parse("t.d2w", c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err %q missing %q", c.name, err, c.wantSub)
		}
	}
}

func TestIfConditionWithQuotedOperatorChars(t *testing.T) {
	// Operators inside quoted strings must not split the condition.
	src := `%HTML_INPUT{%IF($(x) == "a<=b")T%ELSE F%ENDIF%}`
	in := cgi.NewForm()
	in.Add("x", "a<=b")
	if got := strings.TrimSpace(runIf(t, src, in)); got != "T" {
		t.Fatalf("got %q", got)
	}
}

func TestIfVariablesVisibleToLint(t *testing.T) {
	// The macrolint undefined-variable analyzer builds on Variables; %IF
	// condition references must register (macrolint's own tests cover the
	// diagnostic itself).
	m := mustParse(t, `%HTML_INPUT{%IF($(mystery) == "x")y%ENDIF%}`)
	_, refs := Variables(m)
	if !refs["mystery"] {
		t.Fatal("condition variables must register as references")
	}
}

func TestIfInReportModeWithRowVariables(t *testing.T) {
	// %IF can live inside a report body, reacting to the previous query
	// (ROW_NUM is no longer in scope after the report block pops, so we
	// test the form where a DEFINE captures the count).
	src := `
%define DATABASE = "D"
%SQL{SELECT url, title FROM urldb
%SQL_REPORT{%ROW{.%}$(ROW_NUM)|%}
%}
%HTML_REPORT{%EXEC_SQL%IF($(SHOWFOOT))FOOT%ENDIF%}
`
	m := mustParse(t, src)
	p := &fakeProvider{results: twoColResult()}
	in := cgi.NewForm()
	in.Add("SHOWFOOT", "1")
	out := runMacro(t, &Engine{DB: p}, m, ModeReport, in)
	if !strings.Contains(out, "3|") || !strings.Contains(out, "FOOT") {
		t.Fatalf("got %q", out)
	}
}

func TestIfDeeplyNestedDoesNotBlowUp(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("%HTML_INPUT{")
	const depth = 100
	for i := 0; i < depth; i++ {
		sb.WriteString("%IF($(x))")
	}
	sb.WriteString("core")
	for i := 0; i < depth; i++ {
		sb.WriteString("%ENDIF")
	}
	sb.WriteString("%}")
	m := mustParse(t, sb.String())
	in := cgi.NewForm()
	in.Add("x", "1")
	var buf bytes.Buffer
	if err := (&Engine{}).Run(m, ModeInput, in, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "core") {
		t.Fatalf("got %q", buf.String())
	}
}

// TestIfNestingIsBounded: maxIfNesting levels of %IF parse and render; one
// more, or 100 000, is a parse error at the %IF past the bound, on its own
// line, before any walk recurses that deep.
func TestIfNestingIsBounded(t *testing.T) {
	nest := func(depth int) string {
		var sb strings.Builder
		sb.WriteString("%HTML_INPUT{")
		for i := 0; i < depth; i++ {
			sb.WriteString("%IF($(x))\n")
		}
		sb.WriteString("core")
		for i := 0; i < depth; i++ {
			sb.WriteString("%ENDIF")
		}
		sb.WriteString("%}")
		return sb.String()
	}
	in := cgi.NewForm()
	in.Add("x", "1")
	if out := runIf(t, nest(maxIfNesting), in); !strings.Contains(out, "core") {
		t.Fatalf("%d levels: got %q", maxIfNesting, out)
	}
	want := fmt.Sprintf("m.d2w:%d: %%IF nesting exceeds %d levels", maxIfNesting+1, maxIfNesting)
	for _, depth := range []int{maxIfNesting + 1, 100_000} {
		if _, err := Parse("m.d2w", nest(depth)); err == nil || err.Error() != want {
			t.Errorf("%d levels: err = %v, want %s", depth, err, want)
		}
	}
}
