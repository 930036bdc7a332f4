// Package rawcgi is the Section 1 strawman: the URL-query application
// written as a stand-alone CGI program, HTML intermixed with code,
// talking to the DBMS through its programming interface directly. It
// exists as a comparison point for experiment E10 — it is fast and
// direct, but every concern the paper lists is visible in the source: the
// CGI protocol details, the DBMS API, HTML embedded in string literals,
// and report layout changes requiring code changes.
package rawcgi

import (
	"fmt"
	"strings"

	"db2www/internal/cgi"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
)

// App is the hand-coded URL query CGI application.
type App struct {
	// Database is the registered engine database name.
	Database string
}

// ServeCGI implements cgi.Handler: /anything/input emits the form,
// /anything/report runs the query.
func (a *App) ServeCGI(req *cgi.Request) (*cgi.Response, error) {
	_, cmd, err := cgi.SplitPathInfo(req.PathInfo)
	if err != nil {
		return respond(400, errorHTML(err.Error())), nil
	}
	switch strings.ToLower(cmd) {
	case "input":
		return respond(200, a.inputForm()), nil
	case "report":
		inputs, err := req.Inputs()
		if err != nil {
			return respond(400, errorHTML(err.Error())), nil
		}
		body, err := a.report(inputs)
		if err != nil {
			return respond(200, errorHTML(err.Error())), nil
		}
		return respond(200, body), nil
	default:
		return respond(400, errorHTML("unknown command "+cmd)), nil
	}
}

func respond(status int, body string) *cgi.Response {
	return &cgi.Response{Status: status, ContentType: "text/html",
		Headers: map[string]string{"content-type": "text/html"}, Body: cgi.StringBody(body)}
}

func errorHTML(msg string) string {
	return "<HTML><TITLE>Error</TITLE><BODY><H1>Error</H1><P>" +
		strings.ReplaceAll(msg, "<", "&lt;") + "</P></BODY></HTML>"
}

// inputForm prints the query form. Note the paper's complaint made
// concrete: the HTML lives in Go string literals, so adopting new HTML
// features means editing and recompiling this program.
func (a *App) inputForm() string {
	var b strings.Builder
	b.WriteString("<HTML><HEAD><TITLE>URL Query (raw CGI)</TITLE></HEAD><BODY>\n")
	b.WriteString("<H1>Query URL Information</H1>\n")
	b.WriteString("<FORM METHOD=\"post\" ACTION=\"report\">\n")
	b.WriteString("Search String: <INPUT NAME=\"SEARCH\" VALUE=\"ib\">\n<P>\n")
	b.WriteString("<INPUT TYPE=\"checkbox\" NAME=\"USE_URL\" VALUE=\"yes\" CHECKED> URL<BR>\n")
	b.WriteString("<INPUT TYPE=\"checkbox\" NAME=\"USE_TITLE\" VALUE=\"yes\" CHECKED> Title<BR>\n")
	b.WriteString("<INPUT TYPE=\"checkbox\" NAME=\"USE_DESC\" VALUE=\"yes\"> Description\n<P>\n")
	b.WriteString("<SELECT NAME=\"DBFIELDS\" SIZE=2 MULTIPLE>\n")
	b.WriteString("<OPTION VALUE=\"title\" SELECTED> Title\n")
	b.WriteString("<OPTION VALUE=\"description\">Description\n")
	b.WriteString("</SELECT>\n<P>\n")
	b.WriteString("<INPUT TYPE=\"submit\" VALUE=\"Submit Query\">\n")
	b.WriteString("</FORM></BODY></HTML>\n")
	return b.String()
}

// report builds the SQL from the inputs, runs it, and formats the rows —
// application logic, DBMS access, and presentation in one function.
func (a *App) report(inputs *cgi.Form) (string, error) {
	db, ok := sqldriver.Lookup(a.Database)
	if !ok {
		return "", fmt.Errorf("rawcgi: database %q is not registered", a.Database)
	}

	search, _ := inputs.Get("SEARCH")
	search = strings.ReplaceAll(search, "'", "''")
	var conds []string
	if v, _ := inputs.Get("USE_URL"); v != "" {
		conds = append(conds, "urldb.url LIKE '%"+search+"%'")
	}
	if v, _ := inputs.Get("USE_TITLE"); v != "" {
		conds = append(conds, "urldb.title LIKE '%"+search+"%'")
	}
	if v, _ := inputs.Get("USE_DESC"); v != "" {
		conds = append(conds, "urldb.description LIKE '%"+search+"%'")
	}
	where := ""
	if len(conds) > 0 {
		where = " WHERE " + strings.Join(conds, " OR ")
	}
	fields := inputs.GetAll("DBFIELDS")
	sel := "SELECT url"
	for _, f := range fields {
		switch f { // column whitelisting by hand
		case "title", "description":
			sel += ", " + f
		}
	}
	query := sel + " FROM urldb" + where + " ORDER BY title"

	res, err := sqldb.NewSession(db).Exec(query)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("<HTML><HEAD><TITLE>URL Query Result (raw CGI)</TITLE></HEAD><BODY>\n")
	b.WriteString("<H1>URL Query Result</H1>\n<HR>\n")
	b.WriteString("Select any of the following to go to the specified URL:\n<UL>\n")
	for _, row := range res.Rows {
		url := row[0].String()
		fmt.Fprintf(&b, "<LI> <A HREF=\"%s\">%s</A>", url, url)
		for _, v := range row[1:] {
			if s := v.String(); s != "" { // NULL prints as ""
				b.WriteString(" <br>" + s)
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("</UL>\n<HR></BODY></HTML>\n")
	return b.String(), nil
}
