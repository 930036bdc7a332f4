package core

import (
	"bytes"
	"strings"
	"testing"

	"db2www/internal/cgi"
)

// FuzzMacroParse checks the macro parser never panics and that whatever
// parses also renders (in both modes) without panicking.
func FuzzMacroParse(f *testing.F) {
	seeds := []string{
		"%define a = \"1\"\n%HTML_INPUT{$(a)%}",
		"%DEFINE{\n%list \", \" l\nl = ? \"$(x)\"\n%}\n%HTML_REPORT{%EXEC_SQL%}",
		"%SQL(q){SELECT 1\n%SQL_REPORT{%ROW{$(V1)%}%}\n%SQL_MESSAGE{\n+100 : \"none\"\n%}\n%}",
		"%HTML_INPUT{%IF($(a) == \"x\")y%ELIF($(b))z%ELSE w%ENDIF%}",
		"%{ comment %}\n%define b = {multi\nline%}",
		"%HTML_INPUT{$$(esc) $(open",
		"%%%",
		"%DEFINE x = %EXEC \"cmd $(a)\"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse("fuzz.d2w", src)
		if err != nil {
			return
		}
		e := &Engine{}
		var buf bytes.Buffer
		_ = e.Run(m, ModeInput, nil, &buf)
		// Report mode without a DB provider errors on %EXEC_SQL, which
		// is fine — the property is "no panic".
		_ = e.Run(m, ModeReport, nil, &buf)
	})
}

// FuzzExpand checks template expansion never panics on arbitrary text
// and that the compiled template produces what a reference scanner — a
// byte-at-a-time interpreter kept here, in the test file only — produces
// from the same text; and that the same text as a report's %ROW template
// prints the same rows, and leaves the same record, with its references
// bound once per report as with every one looked up by name on every row
// (referenceRenderCustom).
func FuzzExpand(f *testing.F) {
	f.Add("$(a)$$(b)$((c))")
	f.Add("$")
	f.Add("$(unterminated")
	f.Add("$(@html:x)$(@sq:y)$(@url:z)")
	f.Add("$(@html:c) $(@sq:c) $(@url:c) $(n$(one)) $(@sq:n$(one)) $($(p)c)")
	f.Add("$(outer $(a) $$(b $(n1)) $$(x)y) $(n$(a$(b)")
	f.Add(`<LI> <A HREF="$(V1)">$(V1)</A> $(D2) $(@html:D3) $(W) $(L) $(X) $(V9) $(ROW_NUM)`)
	f.Add("$(D$(one)) $(@url:D2)$(D2)$$(D3) $(V.TITLE)$(V.none) $(b) $(posted) $(N1)$(VLIST) $(D3")
	// Nested past maxRefNesting: the deepest "$(" is literal text.
	f.Add(strings.Repeat("$(", maxRefNesting+1) + "a" + strings.Repeat(")", maxRefNesting+1))
	f.Add(strings.Repeat("$(p", maxRefNesting+3) + "$$(b)c" + strings.Repeat(")", maxRefNesting+3) + "$(a)")
	rowMacro := func(tpl string) *Macro {
		m := &Macro{Name: "fuzz", Sections: []Section{
			&DefineSection{Stmts: []DefineStmt{
				{Kind: DefSimple, Name: "a", Value: "va"},
				{Kind: DefCondSelf, Name: "b", Value: "$(a)"},
				{Kind: DefSimple, Name: "one", Value: "2"},
				{Kind: DefCondSelf, Name: "D2", Value: "<br>$(V2)"},
				{Kind: DefSimple, Name: "D3", Value: "[$(@html:V.title)|$(V3)]"},
				{Kind: DefCondSelf, Name: "W", Value: "($(D2))"},
				{Kind: DefList, Name: "L", Sep: ", "},
				{Kind: DefSimple, Name: "L", Value: "$(V1)"},
				{Kind: DefSimple, Name: "L", Value: "$(V2)"},
				{Kind: DefCondTest, Name: "X", TestVar: "V2", Value: "$(V2)", HasElse: true, Value2: "none"},
				{Kind: DefCondSelf, Name: "posted", Value: "$(V1)"},
			}},
			&SQLSection{Report: &ReportBlock{HasRow: true, Row: tpl}},
		}}
		compileTemplates(m)
		return m
	}
	f.Fuzz(func(t *testing.T, tpl string) {
		checkRowBindingOf(t, rowMacro(tpl), "%ROW{"+tpl+"%} over FuzzExpand's definitions", form("posted", "input $(V3)"), urlTable)

		vt := NewVarTable("fuzz", nil)
		vt.ApplyDefine(&DefineSection{Stmts: []DefineStmt{
			{Kind: DefSimple, Name: "a", Value: "va"},
			{Kind: DefCondSelf, Name: "b", Value: "$(a)"},
			{Kind: DefSimple, Name: "c", Value: `<it's "a&b">`},
			{Kind: DefSimple, Name: "one", Value: "1"},
			{Kind: DefSimple, Name: "n1", Value: "nested"},
			{Kind: DefSimple, Name: "p", Value: "@html:"},
		}})
		got, err := vt.Expand(tpl)
		if err != nil {
			t.Fatalf("Expand(%q): %v", tpl, err)
		}
		values := map[string]string{"a": "va", "b": "va", "c": `<it's "a&b">`, "one": "1", "n1": "nested", "p": "@html:"}
		if want := referenceExpand(tpl, values, 1); got != want {
			t.Fatalf("Expand(%q)\n got %q\nwant %q", tpl, got, want)
		}
	})
}

// referenceExpand is the specification of value-string expansion, written
// for clarity: "$$(" up to the next ")" is an escape that loses its first
// "$"; "$(" up to the ")" balancing its nested "$(" is a reference, whose
// body is expanded first if it holds references itself, then stripped of
// a transform prefix and looked up; an unterminated "$(" or "$$(" ends
// substitution and the rest is literal. A reference sits level levels
// deep, and the body of one maxRefNesting levels deep is not expanded: the
// "$(" in it is literal text of the name.
func referenceExpand(tpl string, values map[string]string, level int) string {
	var out strings.Builder
	for i := 0; i < len(tpl); {
		switch {
		case strings.HasPrefix(tpl[i:], "$$("):
			end := strings.IndexByte(tpl[i:], ')')
			if end < 0 {
				return out.String() + tpl[i:]
			}
			out.WriteString(tpl[i+1 : i+end+1])
			i += end + 1
		case strings.HasPrefix(tpl[i:], "$("):
			depth, end := 0, -1
			for j := i + 2; j < len(tpl) && end < 0; j++ {
				switch {
				case strings.HasPrefix(tpl[j:], "$("):
					depth++
					j++
				case tpl[j] == ')' && depth == 0:
					end = j
				case tpl[j] == ')':
					depth--
				}
			}
			if end < 0 {
				return out.String() + tpl[i:]
			}
			name := tpl[i+2 : end]
			if strings.Contains(name, "$(") && level < maxRefNesting {
				name = referenceExpand(name, values, level+1)
			}
			switch {
			case strings.HasPrefix(name, "@html:"):
				out.WriteString(strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&#39;").
					Replace(values[name[len("@html:"):]]))
			case strings.HasPrefix(name, "@sq:"):
				out.WriteString(strings.ReplaceAll(values[name[len("@sq:"):]], "'", "''"))
			case strings.HasPrefix(name, "@url:"):
				out.WriteString(cgi.EncodeComponent(values[name[len("@url:"):]]))
			default:
				out.WriteString(values[name])
			}
			i = end + 1
		default:
			out.WriteByte(tpl[i])
			i++
		}
	}
	return out.String()
}

// FuzzSQLShape checks the shape of a %SQL command against the expansion it
// records (Static.Shape): its text is what the engine expands the command to
// whenever that raises no error, with no hole when Static calls the command
// static; its segments cover the text and the skeleton exactly once, in
// order, a hole outside a literal being one "?"; and every byte of the
// skeleton maps into the template, a byte of literal text to itself.
func FuzzSQLShape(f *testing.F) {
	f.Add("SELECT * FROM t WHERE a = '$(IN)' AND b = $(IN) AND c LIKE '%$(a)$(IN)%'")
	f.Add("'it''s $(a)' $(b) $(c) $(L) $(w) $(q)$(IN)'$(IN)")
	f.Add("$(A$(one)) $$(a) '$(@sq:q)' ? $(n1)$(IN) $(x) $(open")
	f.Add("'$(IN)''$(IN)' '' '$(q)' ?$(IN)")
	f.Fuzz(func(t *testing.T, cmd string) {
		m := &Macro{Name: "fuzz", Sections: []Section{
			&DefineSection{Stmts: []DefineStmt{
				{Kind: DefSimple, Name: "a", Value: "va"},
				{Kind: DefSimple, Name: "q", Value: "it's"},
				{Kind: DefSimple, Name: "w", Value: "url LIKE 'h%'"},
				{Kind: DefCondSelf, Name: "b", Value: "$(a) = $(IN)"},
				{Kind: DefSimple, Name: "c", Value: "$(c)"},
				{Kind: DefList, Name: "L", Sep: " AND "},
				{Kind: DefSimple, Name: "L", Value: "$(w)"},
				{Kind: DefSimple, Name: "L", Value: "x = '$(IN)'"},
				{Kind: DefSimple, Name: "one", Value: "1"},
				{Kind: DefSimple, Name: "n1", Value: "'"},
			}},
			&HTMLSection{Items: []HTMLItem{{Text: `<INPUT NAME="IN">`}}},
			&SQLSection{Command: cmd},
		}}
		compileTemplates(m)
		s := NewStatic(m)
		sh := s.Shape(m.SQLSections()[0])
		if want, err := s.vt.Expand(cmd); err == nil && sh.Text != want {
			t.Fatalf("%q: shape %q, expansion %q", cmd, sh.Text, want)
		}
		static, isStatic := s.Expand(cmd)
		if isStatic && static != sh.Text {
			t.Fatalf("%q: shape %q, static expansion %q", cmd, sh.Text, static)
		}
		out, skel := 0, 0
		for _, g := range sh.Segs {
			if g.Out != out || g.End < g.Out || g.Hole && (isStatic || !g.Ref) {
				t.Fatalf("%q: segment %+v after %d bytes of text (static %v)", cmd, g, out, isStatic)
			}
			text := sh.Text[g.Out:g.End]
			switch {
			case g.InLit:
				text = ""
			case g.Hole:
				text = "?"
			}
			if !strings.HasPrefix(sh.Skeleton[skel:], text) {
				t.Fatalf("%q: segment %+v is %q, at %d the skeleton %q", cmd, g, text, skel, sh.Skeleton)
			}
			out, skel = g.End, skel+len(text)
		}
		if out != len(sh.Text) || skel != len(sh.Skeleton) {
			t.Fatalf("%q: segments cover %d of %d bytes of text, %d of %d of skeleton", cmd, out, len(sh.Text), skel, len(sh.Skeleton))
		}
		for off := 0; off < len(sh.Skeleton); off++ {
			src := sh.Src(off)
			if src < 0 || src >= len(cmd) {
				t.Fatalf("%q: skeleton byte %d maps to %d", cmd, off, src)
			}
			if cmd[src] != sh.Skeleton[off] && !strings.HasPrefix(cmd[src:], "$(") {
				t.Fatalf("%q: skeleton byte %d (%q) maps to %d (%q)", cmd, off, sh.Skeleton[off], src, cmd[src])
			}
		}
	})
}
