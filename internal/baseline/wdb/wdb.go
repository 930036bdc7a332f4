// Package wdb reimplements the ESO WDB gateway of the paper's related
// work (Section 6) from its cited description. WDB has two components:
//
//   - an FDF generator that extracts table and column definitions from
//     the database and emits a skeleton form definition file, and
//   - a run-time engine that auto-generates the HTML query form, the SQL
//     query, and the report from an FDF.
//
// WDB gets an application running with almost no work — the paper grants
// this — but the FDF carries no layout information: the form and report
// are machine-made, and the query capability is per-column constraints
// only. Experiment E10 quantifies both sides of that trade.
package wdb

import (
	"fmt"
	"strings"

	"db2www/internal/cgi"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
)

// FDF is a form definition file: one table, a list of fields.
type FDF struct {
	Name     string
	Database string
	Table    string
	Title    string
	Fields   []Field
}

// Field describes one column in an FDF.
type Field struct {
	Column  string
	Label   string
	Type    string // "char" or "num"
	Query   bool   // user may constrain it on the form
	Display bool   // shown in the report
}

// GenerateFDF builds a skeleton FDF from a live table's catalog — WDB's
// headline convenience feature.
func GenerateFDF(database, table string) (*FDF, error) {
	engine, ok := sqldriver.Lookup(database)
	if !ok {
		return nil, fmt.Errorf("wdb: unknown database %q", database)
	}
	t, err := engine.Table(table)
	if err != nil {
		return nil, fmt.Errorf("wdb: %w", err)
	}
	fdf := &FDF{
		Name:     strings.ToLower(table),
		Database: database,
		Table:    t.Name,
		Title:    t.Name + " query form",
	}
	for _, col := range t.Columns {
		typ := "char"
		if col.Type == sqldb.TInt || col.Type == sqldb.TFloat {
			typ = "num"
		}
		fdf.Fields = append(fdf.Fields, Field{
			Column:  col.Name,
			Label:   col.Name,
			Type:    typ,
			Query:   true,
			Display: true,
		})
	}
	return fdf, nil
}

// Marshal renders the FDF in its on-disk format.
func (f *FDF) Marshal() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NAME = %s\nDATABASE = %s\nTABLE = %s\nTITLE = %s\n",
		f.Name, f.Database, f.Table, f.Title)
	for _, fd := range f.Fields {
		fmt.Fprintf(&b, "FIELD = %s\n  label = %s\n  type = %s\n", fd.Column, fd.Label, fd.Type)
		if fd.Query {
			b.WriteString("  query = true\n")
		}
		if fd.Display {
			b.WriteString("  display = true\n")
		}
	}
	return b.String()
}

// ParseFDF parses the on-disk FDF format.
func ParseFDF(src string) (*FDF, error) {
	f := &FDF{}
	var cur *Field
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("wdb: line %d: want key = value", ln+1)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch key {
		case "name":
			f.Name = val
		case "database":
			f.Database = val
		case "table":
			f.Table = val
		case "title":
			f.Title = val
		case "field":
			f.Fields = append(f.Fields, Field{Column: val, Label: val, Type: "char"})
			cur = &f.Fields[len(f.Fields)-1]
		case "label", "type", "query", "display":
			if cur == nil {
				return nil, fmt.Errorf("wdb: line %d: %s outside FIELD", ln+1, key)
			}
			switch key {
			case "label":
				cur.Label = val
			case "type":
				cur.Type = val
			case "query":
				cur.Query = val == "true"
			case "display":
				cur.Display = val == "true"
			}
		default:
			return nil, fmt.Errorf("wdb: line %d: unknown key %q", ln+1, key)
		}
	}
	if f.Table == "" || f.Database == "" {
		return nil, fmt.Errorf("wdb: FDF lacks TABLE or DATABASE")
	}
	return f, nil
}

// App serves one FDF as a CGI application.
type App struct {
	FDF *FDF
}

// ServeCGI implements cgi.Handler with the shared URL convention.
func (a *App) ServeCGI(req *cgi.Request) (*cgi.Response, error) {
	_, cmd, err := cgi.SplitPathInfo(req.PathInfo)
	if err != nil {
		return respond(400, "<P>bad request</P>"), nil
	}
	switch strings.ToLower(cmd) {
	case "input", "form":
		return respond(200, a.form()), nil
	case "report", "query":
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

// form auto-generates the query form: one constraint input per queryable
// field. The layout is fixed — the FDF has nowhere to express any other.
func (a *App) form() string {
	var b strings.Builder
	fmt.Fprintf(&b, "<HTML><HEAD><TITLE>%s</TITLE></HEAD><BODY><H1>%s</H1>\n",
		a.FDF.Title, a.FDF.Title)
	b.WriteString("<P>Enter query constraints. Character fields match as\n" +
		"prefixes; numeric fields accept =N, &lt;N, &gt;N.</P>\n")
	b.WriteString("<FORM METHOD=\"post\" ACTION=\"report\">\n<DL>\n")
	for _, fd := range a.FDF.Fields {
		if !fd.Query {
			continue
		}
		fmt.Fprintf(&b, "<DT>%s (%s)<DD><INPUT NAME=\"%s\">\n", fd.Label, fd.Type, fd.Column)
	}
	b.WriteString("</DL>\n<INPUT TYPE=\"submit\" VALUE=\"Search\">\n</FORM></BODY></HTML>\n")
	return b.String()
}

// report builds the WHERE clause from per-field constraints and renders
// the fixed tabular report.
func (a *App) report(inputs *cgi.Form) (string, error) {
	var conds []string
	for _, fd := range a.FDF.Fields {
		if !fd.Query {
			continue
		}
		v, _ := inputs.Get(fd.Column)
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		cond, err := constraint(fd, v)
		if err != nil {
			return "", err
		}
		conds = append(conds, cond)
	}
	var show []string
	for _, fd := range a.FDF.Fields {
		if fd.Display {
			show = append(show, fd.Column)
		}
	}
	if len(show) == 0 {
		show = []string{"*"}
	}
	query := "SELECT " + strings.Join(show, ", ") + " FROM " + a.FDF.Table
	if len(conds) > 0 {
		query += " WHERE " + strings.Join(conds, " AND ")
	}

	db, ok := sqldriver.Lookup(a.FDF.Database)
	if !ok {
		return "", fmt.Errorf("wdb: unknown database %q", a.FDF.Database)
	}
	res, err := sqldb.NewSession(db).Exec(query)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<HTML><HEAD><TITLE>%s result</TITLE></HEAD><BODY><H1>%s</H1>\n",
		a.FDF.Title, a.FDF.Title)
	b.WriteString("<TABLE BORDER=1>\n<TR>")
	for _, c := range res.Columns {
		fmt.Fprintf(&b, "<TH>%s</TH>", c)
	}
	b.WriteString("</TR>\n")
	for _, row := range res.Rows {
		b.WriteString("<TR>")
		for _, v := range row {
			fmt.Fprintf(&b, "<TD>%s</TD>", v.String())
		}
		b.WriteString("</TR>\n")
	}
	fmt.Fprintf(&b, "</TABLE>\n<P>%d row(s).</P>\n</BODY></HTML>\n", len(res.Rows))
	return b.String(), nil
}

// constraint translates one form value into a SQL condition.
func constraint(fd Field, v string) (string, error) {
	esc := strings.ReplaceAll(v, "'", "''")
	if fd.Type == "num" {
		op := "="
		num := v
		if strings.HasPrefix(v, "<") || strings.HasPrefix(v, ">") || strings.HasPrefix(v, "=") {
			op = v[:1]
			num = strings.TrimSpace(v[1:])
		}
		for _, r := range num {
			if (r < '0' || r > '9') && r != '.' && r != '-' {
				return "", fmt.Errorf("wdb: bad numeric constraint %q for %s", v, fd.Column)
			}
		}
		return fd.Column + " " + op + " " + num, nil
	}
	return fd.Column + " LIKE '" + esc + "%'", nil
}
