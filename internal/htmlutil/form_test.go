package htmlutil

import (
	"strings"
	"testing"
)

// figure2 is the paper's Figure 2 sample HTML input form (normalised from
// the OCR'd text: six input variables — SEARCH, USE_URL, USE_TITLE,
// USE_DESC, DBFIELD, SHOWSQL).
const figure2 = `
<TITLE>DB2 WWW URL Query</TITLE>
<h1>Query URL Information</h1>
<P>
<FORM METHOD="post" ACTION="/cgi-bin/db2www.exe/urlquery.d2w/report">
Please enter a search string:
<INPUT TYPE="text" NAME="SEARCH" SIZE=20>
<P>
Please select what field(s) to search for the string above:
<P>
<INPUT TYPE="checkbox" NAME="USE_URL" VALUE="yes" CHECKED> URL<br>
<INPUT TYPE="checkbox" NAME="USE_TITLE" VALUE="yes" CHECKED> Title<br>
<INPUT TYPE="checkbox" NAME="USE_DESC" VALUE="yes">Description
<P>
Please select what field(s) to see in the report:
<br>
<SELECT NAME="DBFIELD" SIZE=3 MULTIPLE>
<OPTION VALUE="url">URL
<OPTION VALUE="title" SELECTED> Title
<OPTION VALUE="desc">Description
</SELECT>
<hr>
Show SQL statement on output?
<INPUT TYPE="radio" NAME="SHOWSQL" VALUE="YES"> Yes
<INPUT TYPE="radio" NAME="SHOWSQL" VALUE="" CHECKED> No
<P>
<INPUT TYPE="submit" VALUE="Submit Query">
<INPUT TYPE="reset" VALUE="Reset Input">
</FORM>
`

func parseFigure2(t *testing.T) *Form {
	t.Helper()
	forms := ParseForms(figure2)
	if len(forms) != 1 {
		t.Fatalf("found %d forms, want 1", len(forms))
	}
	return forms[0]
}

func TestParseFigure2Structure(t *testing.T) {
	f := parseFigure2(t)
	if f.Method != "POST" {
		t.Errorf("method = %q", f.Method)
	}
	if f.Action != "/cgi-bin/db2www.exe/urlquery.d2w/report" {
		t.Errorf("action = %q", f.Action)
	}
	if c := f.Control("SEARCH"); c == nil || c.Kind != CtlText {
		t.Errorf("SEARCH control = %+v", c)
	}
	if c := f.Control("USE_URL"); c == nil || c.Kind != CtlCheckbox || !c.Checked || c.Value != "yes" {
		t.Errorf("USE_URL control = %+v", c)
	}
	if c := f.Control("USE_DESC"); c == nil || c.Checked {
		t.Errorf("USE_DESC must start unchecked: %+v", c)
	}
	sel := f.Control("DBFIELD")
	if sel == nil || sel.Kind != CtlSelect || !sel.Multiple || len(sel.Options) != 3 {
		t.Fatalf("DBFIELD control = %+v", sel)
	}
	if sel.Options[1].Value != "title" || !sel.Options[1].Selected {
		t.Errorf("Title option must be pre-selected: %+v", sel.Options[1])
	}
	radios := f.ControlsNamed("SHOWSQL")
	if len(radios) != 2 || radios[0].Value != "YES" || radios[1].Value != "" || !radios[1].Checked {
		t.Errorf("SHOWSQL radios = %+v", radios)
	}
}

// TestFigure3Submission reproduces the exact submission of Section 2.2:
// the user leaves SEARCH empty, keeps URL+Title checks, selects Title and
// Description in DBFIELD, keeps SHOWSQL=No, and clicks Submit Query.
// The paper lists the resulting variables:
//
//	SEARCH="" USE_URL="yes" USE_TITLE="yes" USE_DESC=""(absent)
//	DBFIELD="title" DBFIELD="desc" SHOWSQL=""
func TestFigure3Submission(t *testing.T) {
	f := parseFigure2(t)
	if err := f.SelectOptions("DBFIELD", "title", "desc"); err != nil {
		t.Fatal(err)
	}
	sub := f.Submission()
	if v, ok := sub.Get("SEARCH"); !ok || v != "" {
		t.Errorf("SEARCH = %q present=%v, want empty-but-present", v, ok)
	}
	if v, _ := sub.Get("USE_URL"); v != "yes" {
		t.Errorf("USE_URL = %q", v)
	}
	if v, _ := sub.Get("USE_TITLE"); v != "yes" {
		t.Errorf("USE_TITLE = %q", v)
	}
	// Unchecked checkbox is NOT a successful control: USE_DESC absent.
	if sub.Has("USE_DESC") {
		t.Error("USE_DESC must be absent (unchecked checkbox)")
	}
	if got := sub.GetAll("DBFIELD"); len(got) != 2 || got[0] != "title" || got[1] != "desc" {
		t.Errorf("DBFIELD = %v", got)
	}
	if v, ok := sub.Get("SHOWSQL"); !ok || v != "" {
		t.Errorf("SHOWSQL = %q present=%v, want empty string (the No radio)", v, ok)
	}
	// Buttons never contribute.
	enc := sub.Encode()
	if strings.Contains(enc, "Submit") || strings.Contains(enc, "Reset") {
		t.Errorf("buttons leaked into submission: %q", enc)
	}
}

func TestFillAndSubmit(t *testing.T) {
	f := parseFigure2(t)
	if err := f.SetText("SEARCH", "ib"); err != nil {
		t.Fatal(err)
	}
	if err := f.SetCheckbox("USE_DESC", true); err != nil {
		t.Fatal(err)
	}
	if err := f.ChooseRadio("SHOWSQL", "YES"); err != nil {
		t.Fatal(err)
	}
	sub := f.Submission()
	if v, _ := sub.Get("SEARCH"); v != "ib" {
		t.Errorf("SEARCH = %q", v)
	}
	if v, _ := sub.Get("USE_DESC"); v != "yes" {
		t.Errorf("USE_DESC = %q", v)
	}
	if v, _ := sub.Get("SHOWSQL"); v != "YES" {
		t.Errorf("SHOWSQL = %q", v)
	}
}

func TestRadioGroupExclusive(t *testing.T) {
	f := parseFigure2(t)
	if err := f.ChooseRadio("SHOWSQL", "YES"); err != nil {
		t.Fatal(err)
	}
	radios := f.ControlsNamed("SHOWSQL")
	if !radios[0].Checked || radios[1].Checked {
		t.Fatalf("radio group state = %v/%v", radios[0].Checked, radios[1].Checked)
	}
}

func TestSelectErrors(t *testing.T) {
	f := parseFigure2(t)
	if err := f.SelectOptions("DBFIELD", "nosuch"); err == nil {
		t.Error("selecting a missing option must fail")
	}
	if err := f.SetText("DBFIELD", "x"); err == nil {
		t.Error("SetText on a select must fail")
	}
	if err := f.SetCheckbox("SEARCH", true); err == nil {
		t.Error("SetCheckbox on a text input must fail")
	}
	if err := f.ChooseRadio("SEARCH", "x"); err == nil {
		t.Error("ChooseRadio on a text input must fail")
	}
}

func TestCheckboxWithoutValueSubmitsOn(t *testing.T) {
	forms := ParseForms(`<FORM ACTION="/x"><INPUT TYPE=checkbox NAME=flag CHECKED></FORM>`)
	sub := forms[0].Submission()
	if v, _ := sub.Get("flag"); v != "on" {
		t.Fatalf("flag = %q, want on", v)
	}
}

func TestTextarea(t *testing.T) {
	forms := ParseForms(`<FORM ACTION="/x"><TEXTAREA NAME=note>line1
line2</TEXTAREA></FORM>`)
	c := forms[0].Control("note")
	if c == nil || c.Kind != CtlTextarea || c.Value != "line1\nline2" {
		t.Fatalf("textarea = %+v", c)
	}
}

func TestOptionWithoutValueUsesLabel(t *testing.T) {
	forms := ParseForms(`<FORM ACTION="/x"><SELECT NAME=s>
<OPTION SELECTED>First Choice
<OPTION>Second
</SELECT></FORM>`)
	sel := forms[0].Control("s")
	if len(sel.Options) != 2 {
		t.Fatalf("options = %+v", sel.Options)
	}
	if sel.Options[0].Value != "First Choice" {
		t.Errorf("option value = %q", sel.Options[0].Value)
	}
	sub := forms[0].Submission()
	if v, _ := sub.Get("s"); v != "First Choice" {
		t.Errorf("submitted = %q", v)
	}
}

func TestSingleSelectDefaultsToFirstOption(t *testing.T) {
	// Period browsers submitted the first option of a single-choice
	// SELECT even without SELECTED markup.
	forms := ParseForms(`<FORM ACTION="/x"><SELECT NAME=s>
<OPTION VALUE="a">A
<OPTION VALUE="b">B
</SELECT></FORM>`)
	sub := forms[0].Submission()
	if v, ok := sub.Get("s"); !ok || v != "a" {
		t.Fatalf("s = %q, %v; want first option", v, ok)
	}
	// A MULTIPLE select without SELECTED submits nothing.
	forms = ParseForms(`<FORM ACTION="/x"><SELECT NAME=m MULTIPLE>
<OPTION VALUE="a">A
</SELECT></FORM>`)
	if forms[0].Submission().Has("m") {
		t.Fatal("MULTIPLE select must not default-select")
	}
}

func TestUnquotedAttributes(t *testing.T) {
	forms := ParseForms(`<FORM METHOD=post ACTION=/go><INPUT TYPE=text NAME=q VALUE=hi></FORM>`)
	f := forms[0]
	if f.Method != "POST" || f.Action != "/go" {
		t.Fatalf("form = %+v", f)
	}
	if v := f.Control("q").Value; v != "hi" {
		t.Fatalf("value = %q", v)
	}
}

func TestLinks(t *testing.T) {
	src := `<UL>
<LI><A HREF="http://a">a</a>
<LI><A HREF='http://b'>b</a>
<LI><A NAME="anchor-only">no href</a>
</UL>`
	got := Links(src)
	if len(got) != 2 || got[0] != "http://a" || got[1] != "http://b" {
		t.Fatalf("links = %v", got)
	}
}

func TestTitleExtraction(t *testing.T) {
	if got := Title(figure2); got != "DB2 WWW URL Query" {
		t.Fatalf("title = %q", got)
	}
	if got := Title("<p>no title</p>"); got != "" {
		t.Fatalf("title = %q", got)
	}
}

func TestEntities(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a&amp;b", "a&b"},
		{"&lt;tag&gt;", "<tag>"},
		{"&quot;q&quot;", `"q"`},
		{"&#65;", "A"},
		{"&unknown;", "&unknown;"},
		{"no entities", "no entities"},
		{"dangling &", "dangling &"},
	}
	for _, c := range cases {
		if got := DecodeEntities(c.in); got != c.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokenizerToleratesJunk(t *testing.T) {
	// Unterminated tag, stray <, comment.
	toks := Tokenize(`a < b <!-- c --> <p`)
	if len(toks) == 0 {
		t.Fatal("no tokens")
	}
	var text strings.Builder
	for _, tok := range toks {
		if tok.Kind == TokText {
			text.WriteString(tok.Text)
		}
	}
	if !strings.Contains(text.String(), "a ") {
		t.Fatalf("text = %q", text.String())
	}
}

func TestQuotedGtInAttribute(t *testing.T) {
	forms := ParseForms(`<FORM ACTION="/x?a>b"><INPUT NAME=n VALUE="v>w"></FORM>`)
	if len(forms) != 1 {
		t.Fatalf("forms = %d", len(forms))
	}
	if forms[0].Action != "/x?a>b" {
		t.Errorf("action = %q", forms[0].Action)
	}
	if v := forms[0].Control("n").Value; v != "v>w" {
		t.Errorf("value = %q", v)
	}
}
