// Package gsql reimplements the NCSA GSQL gateway of the paper's related
// work (Section 6) from its cited description: an intermediate
// declarative "proc file" language hybridising SQL and HTML. GSQL is the
// comparison point whose restrictions the paper calls out — its variable
// substitution is single-pass and unconditional, it cannot build clauses
// from optional inputs, and it has no mechanism for custom report layout.
//
// Proc file directives (one per line; # starts a comment):
//
//	HEADING  "page title"
//	TEXT     "prose shown on the form"
//	INPUT    NAME [text|checkbox value|select v1,v2,...]
//	SQL      SELECT ... $NAME ...      (single line; $NAME substituted)
//	DATABASE name
//	FIELDS   col1 col2 ...             (columns shown in the report)
package gsql

import (
	"fmt"
	"strings"

	"db2www/internal/cgi"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
)

// Proc is a parsed GSQL proc file.
type Proc struct {
	Heading  string
	Text     []string
	Inputs   []Input
	SQL      string
	Database string
	Fields   []string
}

// InputKind is a form control kind in a proc file.
type InputKind int

// Input kinds.
const (
	InText InputKind = iota
	InCheckbox
	InSelect
)

// Input is one INPUT directive.
type Input struct {
	Name    string
	Kind    InputKind
	Value   string   // checkbox value
	Options []string // select options
}

// ParseProc parses a proc file.
func ParseProc(src string) (*Proc, error) {
	p := &Proc{}
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		kw, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch strings.ToUpper(kw) {
		case "HEADING":
			p.Heading = unquote(rest)
		case "TEXT":
			p.Text = append(p.Text, unquote(rest))
		case "DATABASE":
			p.Database = rest
		case "SQL":
			if p.SQL != "" {
				return nil, fmt.Errorf("gsql: line %d: only one SQL directive is allowed", ln+1)
			}
			p.SQL = rest
		case "FIELDS":
			p.Fields = strings.Fields(rest)
		case "INPUT":
			parts := strings.Fields(rest)
			if len(parts) == 0 {
				return nil, fmt.Errorf("gsql: line %d: INPUT needs a name", ln+1)
			}
			in := Input{Name: parts[0], Kind: InText}
			if len(parts) > 1 {
				switch strings.ToLower(parts[1]) {
				case "text":
				case "checkbox":
					in.Kind = InCheckbox
					in.Value = "on"
					if len(parts) > 2 {
						in.Value = parts[2]
					}
				case "select":
					in.Kind = InSelect
					if len(parts) > 2 {
						in.Options = strings.Split(parts[2], ",")
					}
				default:
					return nil, fmt.Errorf("gsql: line %d: unknown input type %q", ln+1, parts[1])
				}
			}
			p.Inputs = append(p.Inputs, in)
		default:
			return nil, fmt.Errorf("gsql: line %d: unknown directive %q", ln+1, kw)
		}
	}
	if p.SQL == "" {
		return nil, fmt.Errorf("gsql: proc file has no SQL directive")
	}
	return p, nil
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// App serves a single proc file as a CGI application.
type App struct {
	Proc *Proc
}

// ServeCGI implements cgi.Handler with the same /{anything}/{cmd} URL
// convention as DB2WWW so the experiment can drive all systems alike.
func (a *App) ServeCGI(req *cgi.Request) (*cgi.Response, error) {
	_, cmd, err := cgi.SplitPathInfo(req.PathInfo)
	if err != nil {
		return respond(400, "<P>bad request</P>"), nil
	}
	switch strings.ToLower(cmd) {
	case "input":
		return respond(200, a.form()), nil
	case "report":
		inputs, err := req.Inputs()
		if err != nil {
			return respond(400, "<P>bad request</P>"), nil
		}
		body, err := a.report(inputs)
		if err != nil {
			return respond(200, "<P>query failed: "+
				strings.ReplaceAll(err.Error(), "<", "&lt;")+"</P>"), nil
		}
		return respond(200, body), nil
	default:
		return respond(400, "<P>unknown command</P>"), nil
	}
}

func respond(status int, body string) *cgi.Response {
	return &cgi.Response{Status: status, ContentType: "text/html",
		Headers: map[string]string{"content-type": "text/html"}, Body: cgi.StringBody(body)}
}

// form renders the fixed-layout query form — GSQL's documented
// limitation: the application developer cannot control this markup.
func (a *App) form() string {
	var b strings.Builder
	fmt.Fprintf(&b, "<HTML><HEAD><TITLE>%s</TITLE></HEAD><BODY><H1>%s</H1>\n",
		a.Proc.Heading, a.Proc.Heading)
	for _, t := range a.Proc.Text {
		fmt.Fprintf(&b, "<P>%s</P>\n", t)
	}
	b.WriteString("<FORM METHOD=\"post\" ACTION=\"report\">\n<DL>\n")
	for _, in := range a.Proc.Inputs {
		switch in.Kind {
		case InText:
			fmt.Fprintf(&b, "<DT>%s<DD><INPUT NAME=\"%s\">\n", in.Name, in.Name)
		case InCheckbox:
			fmt.Fprintf(&b, "<DT>%s<DD><INPUT TYPE=\"checkbox\" NAME=\"%s\" VALUE=\"%s\">\n",
				in.Name, in.Name, in.Value)
		case InSelect:
			fmt.Fprintf(&b, "<DT>%s<DD><SELECT NAME=\"%s\">\n", in.Name, in.Name)
			for _, o := range in.Options {
				fmt.Fprintf(&b, "<OPTION>%s\n", o)
			}
			b.WriteString("</SELECT>\n")
		}
	}
	b.WriteString("</DL>\n<INPUT TYPE=\"submit\" VALUE=\"Query\">\n</FORM></BODY></HTML>\n")
	return b.String()
}

// report substitutes $NAME references in the SQL (single-pass, no
// conditionals: an absent input substitutes an empty string, typically
// producing LIKE '%%' — exactly the restriction the paper criticises),
// executes it, and prints the fixed tabular report.
func (a *App) report(inputs *cgi.Form) (string, error) {
	query := substitute(a.Proc.SQL, inputs)
	db, ok := sqldriver.Lookup(a.Proc.Database)
	if !ok {
		return "", fmt.Errorf("gsql: database %q is not registered", a.Proc.Database)
	}
	res, err := sqldb.NewSession(db).Exec(query)
	if err != nil {
		return "", err
	}
	show := map[string]bool{}
	for _, f := range a.Proc.Fields {
		show[strings.ToLower(f)] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<HTML><HEAD><TITLE>%s result</TITLE></HEAD><BODY><H1>%s</H1>\n",
		a.Proc.Heading, a.Proc.Heading)
	b.WriteString("<TABLE BORDER=1>\n<TR>")
	visible := make([]bool, len(res.Columns))
	for i, c := range res.Columns {
		visible[i] = len(show) == 0 || show[strings.ToLower(c)]
		if visible[i] {
			fmt.Fprintf(&b, "<TH>%s</TH>", c)
		}
	}
	b.WriteString("</TR>\n")
	for _, row := range res.Rows {
		b.WriteString("<TR>")
		for i, v := range row {
			if visible[i] {
				fmt.Fprintf(&b, "<TD>%s</TD>", v.String())
			}
		}
		b.WriteString("</TR>\n")
	}
	b.WriteString("</TABLE>\n</BODY></HTML>\n")
	return b.String(), nil
}

// substitute performs GSQL's flat $NAME substitution: one pass, no
// recursion, no conditionals, quotes doubled for minimal safety.
func substitute(sqlText string, inputs *cgi.Form) string {
	var b strings.Builder
	i := 0
	for i < len(sqlText) {
		c := sqlText[i]
		if c != '$' {
			b.WriteByte(c)
			i++
			continue
		}
		j := i + 1
		for j < len(sqlText) && (sqlText[j] == '_' ||
			sqlText[j] >= 'A' && sqlText[j] <= 'Z' ||
			sqlText[j] >= 'a' && sqlText[j] <= 'z' ||
			sqlText[j] >= '0' && sqlText[j] <= '9') {
			j++
		}
		if j == i+1 {
			b.WriteByte(c)
			i++
			continue
		}
		name := sqlText[i+1 : j]
		v, _ := inputs.Get(name)
		b.WriteString(strings.ReplaceAll(v, "'", "''"))
		i = j
	}
	return b.String()
}
