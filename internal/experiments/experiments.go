package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"db2www/internal/core"
	"db2www/internal/webclient"
)

// URLQueryFlow performs one complete user interaction against a stack:
// fetch the input form, submit the default selections, read the report.
// It returns the report page.
func URLQueryFlow(c *webclient.Client) (*webclient.Page, error) {
	page, err := c.Get("http://gateway/cgi-bin/db2www/urlquery.d2w/input")
	if err != nil {
		return nil, err
	}
	if page.Status != 200 {
		return nil, fmt.Errorf("input page status %d", page.Status)
	}
	form, err := page.Form(0)
	if err != nil {
		return nil, err
	}
	report, err := page.Submit(form)
	if err != nil {
		return nil, err
	}
	if report.Status != 200 {
		return nil, fmt.Errorf("report page status %d", report.Status)
	}
	return report, nil
}

// RenderFigure2 runs the figure2.d2w macro in input mode and returns the
// generated page body (the E2 artefact).
func RenderFigure2() (string, error) {
	src, err := os.ReadFile(filepath.Join(RepoRoot(), "testdata", "macros", "figure2.d2w"))
	if err != nil {
		return "", err
	}
	m, err := core.Parse("figure2.d2w", string(src))
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := (&core.Engine{}).Run(m, core.ModeInput, nil, &buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// Restyles returns three %SQL_REPORT blocks over the identical SQL
// command: the E11 report-restyling experiment (paper Section 7's "full
// power of HTML" claim).
func Restyles() map[string]string {
	reportBase := `
%%define DATABASE = "RESTYLE"
%%SQL{
SELECT url, title FROM urldb ORDER BY title
%s%%}
%%HTML_REPORT{<TITLE>Restyle</TITLE>
%%EXEC_SQL
%%}
`
	styles := map[string]string{
		// Default: no %SQL_REPORT block at all.
		"default-table": fmt.Sprintf(reportBase, ""),
		"bullet-list": fmt.Sprintf(reportBase, `%SQL_REPORT{
<UL>
%ROW{<LI><A HREF="$(V1)">$(V2)</A>
%}
</UL>
%}
`),
		// An HTML 3.0 table with attributes a 1996 visual editor would
		// emit — adopting the new HTML version without touching SQL.
		"html3-table": fmt.Sprintf(reportBase, `%SQL_REPORT{
<TABLE BORDER=2 CELLPADDING=4 WIDTH="100:">
<CAPTION>URL catalogue ($(NLIST))</CAPTION>
<TR><TH>#</TH><TH>$(N1)</TH><TH>$(N2)</TH></TR>
%ROW{<TR><TD>$(ROW_NUM)</TD><TD><A HREF="$(V1)">$(V1)</A></TD><TD>$(V2)</TD></TR>
%}
</TABLE>
<P>$(ROW_NUM) rows.</P>
%}
`),
	}
	return styles
}
