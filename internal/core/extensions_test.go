package core

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"db2www/internal/cgi"
)

// --- %INCLUDE ---

func TestIncludeSplicesSections(t *testing.T) {
	files := map[string]string{
		"header.d2i": `%define SITE = "Example Corp"`,
		"main.d2w": `
%INCLUDE "header.d2i"
%HTML_INPUT{Welcome to $(SITE)%}
`,
	}
	resolver := func(name string) (string, error) {
		src, ok := files[name]
		if !ok {
			return "", fmt.Errorf("no such include %q", name)
		}
		return src, nil
	}
	m, err := ParseWithIncludes("main.d2w", files["main.d2w"], resolver)
	if err != nil {
		t.Fatal(err)
	}
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "Welcome to Example Corp" {
		t.Fatalf("got %q", got)
	}
}

func TestIncludeOrderMattersForLaziness(t *testing.T) {
	// Definitions from an include processed after the HTML section must
	// not be visible — inclusion is positional splicing.
	files := map[string]string{
		"late.d2i": `%define LATE = "visible"`,
		"main.d2w": "%HTML_INPUT{[$(LATE)]%}\n%INCLUDE \"late.d2i\"",
	}
	resolver := func(name string) (string, error) { return files[name], nil }
	m, err := ParseWithIncludes("main.d2w", files["main.d2w"], resolver)
	if err != nil {
		t.Fatal(err)
	}
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "[]" {
		t.Fatalf("got %q, want [] (late include invisible to earlier section)", got)
	}
}

func TestIncludeNested(t *testing.T) {
	files := map[string]string{
		"a.d2i":    `%INCLUDE "b.d2i"`,
		"b.d2i":    `%define X = "deep"`,
		"main.d2w": "%INCLUDE \"a.d2i\"\n%HTML_INPUT{$(X)%}",
	}
	resolver := func(name string) (string, error) { return files[name], nil }
	m, err := ParseWithIncludes("main.d2w", files["main.d2w"], resolver)
	if err != nil {
		t.Fatal(err)
	}
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if got := strings.TrimSpace(out); got != "deep" {
		t.Fatalf("got %q", got)
	}
}

// TestIncludeCycleDetected: an include of a file the parse is inside is an
// *IncludeError naming the chain at the include that closes it, a file
// that includes itself too; a chain of distinct files stops at
// maxIncludeDepth.
func TestIncludeCycleDetected(t *testing.T) {
	files := map[string]string{
		"a.d2i":  `%INCLUDE "b.d2i"`,
		"b.d2i":  `%INCLUDE "a.d2i"`,
		"self":   "\n%INCLUDE \"self\"",
		"f0.d2i": `%INCLUDE "f1.d2i"`,
	}
	resolver := func(name string) (string, error) {
		if src, ok := files[name]; ok {
			return src, nil
		}
		n, _ := strconv.Atoi(strings.TrimSuffix(name[1:], ".d2i"))
		return fmt.Sprintf("%%INCLUDE \"f%d.d2i\"", n+1), nil
	}
	for name, want := range map[string]string{
		"a.d2i": "b.d2i:1: %INCLUDE cycle: a.d2i -> b.d2i -> a.d2i",
		"self":  "self:2: %INCLUDE cycle: self -> self",
	} {
		_, err := ParseWithIncludes(name, files[name], resolver)
		var ie *IncludeError
		if !errors.As(err, &ie) || err.Error() != want {
			t.Errorf("%s: err = %v, want %s", name, err, want)
		}
	}
	_, err := ParseWithIncludes("f0.d2i", files["f0.d2i"], resolver)
	var ie *IncludeError
	if err == nil || errors.As(err, &ie) || !strings.Contains(err.Error(), "nesting exceeds 16 levels") {
		t.Errorf("a chain of distinct files: err = %v", err)
	}
}

func TestIncludeWithoutResolverFails(t *testing.T) {
	_, err := Parse("m.d2w", `%INCLUDE "x"`)
	if err == nil || !strings.Contains(err.Error(), "resolver") {
		t.Fatalf("err = %v", err)
	}
}

func TestIncludeMissingFile(t *testing.T) {
	resolver := func(name string) (string, error) { return "", fmt.Errorf("not found") }
	_, err := ParseWithIncludes("m.d2w", `%INCLUDE "gone.d2i"`, resolver)
	if err == nil || !strings.Contains(err.Error(), "gone.d2i") {
		t.Fatalf("err = %v", err)
	}
}

func TestIncludeUnquotedTarget(t *testing.T) {
	files := map[string]string{"inc": `%define V = "1"`}
	resolver := func(name string) (string, error) { return files[name], nil }
	m, err := ParseWithIncludes("m.d2w", "%INCLUDE inc\n%HTML_INPUT{$(V)%}", resolver)
	if err != nil {
		t.Fatal(err)
	}
	out := runMacro(t, &Engine{}, m, ModeInput, nil)
	if strings.TrimSpace(out) != "1" {
		t.Fatalf("got %q", out)
	}
}

// --- scrollable cursors (Section 4.3.2) ---

// pagingMacro pages through urldb-ish rows: RPT_STARTROW comes from a
// hidden input carried between interactions, RPT_MAXROWS fixes the page
// size, and the report links to the next page — the paper's "scrollable
// cursors ... relating multiple client-server interactions" idiom.
const pagingMacro = `
%define{
DATABASE = "PAGED"
RPT_MAXROWS = "3"
RPT_STARTROW = "1"
NEXT_START = ? "4"
%}
%SQL{
SELECT id, name FROM items ORDER BY id
%SQL_REPORT{
<UL>
%ROW{<LI>#$(ROW_NUM): $(V2)
%}
</UL>
<P>Total $(ROW_NUM) rows.</P>
%}
%}
%HTML_REPORT{%EXEC_SQL%}
`

func pagingProvider() *fakeProvider {
	rows := make([][]Field, 8)
	for i := range rows {
		rows[i] = []Field{{S: fmt.Sprintf("%d", i+1)}, {S: fmt.Sprintf("item-%d", i+1)}}
	}
	return &fakeProvider{results: map[string]*SQLResult{
		"SELECT id, name FROM items ORDER BY id": {
			Columns: []string{"id", "name"}, Rows: rows},
	}}
}

func TestPagingFirstPage(t *testing.T) {
	m := mustParse(t, pagingMacro)
	out := runMacro(t, &Engine{DB: pagingProvider()}, m, ModeReport, nil)
	for _, want := range []string{"#1: item-1", "#3: item-3", "Total 8 rows."} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "item-4") {
		t.Errorf("page size 3 exceeded:\n%s", out)
	}
}

func TestPagingSecondPage(t *testing.T) {
	m := mustParse(t, pagingMacro)
	// The next-page request carries RPT_STARTROW=4 as an input variable,
	// which overrides the DEFINE default — Section 4.3's priority rule
	// doing the scrolling.
	in := cgi.NewForm()
	in.Add("RPT_STARTROW", "4")
	out := runMacro(t, &Engine{DB: pagingProvider()}, m, ModeReport, in)
	for _, want := range []string{"#4: item-4", "#6: item-6", "Total 8 rows."} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	for _, avoid := range []string{"item-3", "item-7"} {
		if strings.Contains(out, avoid) {
			t.Errorf("row outside page printed (%s):\n%s", avoid, out)
		}
	}
	// ROW_NUM stays absolute: the page starts at #4, not #1.
	if strings.Contains(out, "#1:") {
		t.Errorf("ROW_NUM must be absolute:\n%s", out)
	}
}

func TestPagingLastPartialPage(t *testing.T) {
	m := mustParse(t, pagingMacro)
	in := cgi.NewForm()
	in.Add("RPT_STARTROW", "7")
	out := runMacro(t, &Engine{DB: pagingProvider()}, m, ModeReport, in)
	if !strings.Contains(out, "#7: item-7") || !strings.Contains(out, "#8: item-8") {
		t.Errorf("partial page wrong:\n%s", out)
	}
	if strings.Count(out, "<LI>") != 2 {
		t.Errorf("rows on last page = %d, want 2:\n%s", strings.Count(out, "<LI>"), out)
	}
}

func TestPagingBadStartRow(t *testing.T) {
	m := mustParse(t, pagingMacro)
	in := cgi.NewForm()
	in.Add("RPT_STARTROW", "zero")
	var buf bytes.Buffer
	err := (&Engine{DB: pagingProvider()}).Run(m, ModeReport, in, &buf)
	if err == nil || !strings.Contains(err.Error(), "RPT_STARTROW") {
		t.Fatalf("err = %v", err)
	}
}

func TestPagingDefaultTable(t *testing.T) {
	src := `
%define DATABASE = "PAGED"
%define RPT_MAXROWS = "2"
%SQL{SELECT id, name FROM items ORDER BY id%}
%HTML_REPORT{%EXEC_SQL%}
`
	m := mustParse(t, src)
	in := cgi.NewForm()
	in.Add("RPT_STARTROW", "5")
	out := runMacro(t, &Engine{DB: pagingProvider()}, m, ModeReport, in)
	if !strings.Contains(out, "item-5") || !strings.Contains(out, "item-6") {
		t.Errorf("default table paging wrong:\n%s", out)
	}
	if strings.Contains(out, "item-4") || strings.Contains(out, "item-7") {
		t.Errorf("default table page bounds wrong:\n%s", out)
	}
}
