package gsql

import (
	"strings"
	"testing"

	"db2www/internal/cgi"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

const urlProc = `
# GSQL proc file for the URL query application
HEADING "URL Query (GSQL)"
TEXT "Enter a search string."
INPUT SEARCH text
DATABASE GSQLDB
SQL SELECT url, title FROM urldb WHERE title LIKE '%$SEARCH%' ORDER BY title
FIELDS url title
`

func setup(t *testing.T) *App {
	t.Helper()
	db := sqldb.NewDatabase("GSQLDB")
	if err := workload.URLDB(db, 40, 7); err != nil {
		t.Fatal(err)
	}
	sqldriver.Register("GSQLDB", db)
	t.Cleanup(func() { sqldriver.Unregister("GSQLDB") })
	proc, err := ParseProc(urlProc)
	if err != nil {
		t.Fatal(err)
	}
	return &App{Proc: proc}
}

func TestParseProc(t *testing.T) {
	p, err := ParseProc(urlProc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Heading != "URL Query (GSQL)" || len(p.Inputs) != 1 || p.Database != "GSQLDB" {
		t.Fatalf("proc = %+v", p)
	}
}

func TestParseProcErrors(t *testing.T) {
	for _, bad := range []string{
		"BOGUS x",
		"INPUT",
		"INPUT a wat",
		"SQL SELECT 1\nSQL SELECT 2",
		"HEADING \"no sql\"",
	} {
		if _, err := ParseProc(bad); err == nil {
			t.Errorf("ParseProc(%q): expected error", bad)
		}
	}
}

func TestFormFixedLayout(t *testing.T) {
	a := setup(t)
	resp, err := a.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/url/input"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Body.String(), "<DL>") || !strings.Contains(resp.Body.String(), `NAME="SEARCH"`) {
		t.Fatalf("form:\n%s", resp.Body)
	}
}

func TestReport(t *testing.T) {
	a := setup(t)
	resp, err := a.ServeCGI(&cgi.Request{
		Method: "GET", PathInfo: "/url/report", QueryString: "SEARCH=Page",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Body.String(), "<TABLE") || !strings.Contains(resp.Body.String(), "<TH>url</TH>") {
		t.Fatalf("report:\n%s", resp.Body)
	}
}

// TestFlatSubstitutionLimitation documents the restriction the paper
// criticises: with SEARCH absent the query degenerates to LIKE '%%'
// (match everything) instead of dropping the clause.
func TestFlatSubstitutionLimitation(t *testing.T) {
	a := setup(t)
	resp, err := a.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/url/report"})
	if err != nil {
		t.Fatal(err)
	}
	// Every non-NULL-title row matches LIKE '%%'.
	n := strings.Count(resp.Body.String(), "<TR>") - 1
	if n < 30 {
		t.Fatalf("expected ~all rows under LIKE '%%%%', got %d", n)
	}
}

func TestSubstituteQuotes(t *testing.T) {
	in := cgi.NewForm()
	in.Add("X", "o'brien")
	got := substitute("WHERE a = '$X'", in)
	if got != "WHERE a = 'o''brien'" {
		t.Fatalf("got %q", got)
	}
	// $10 dereferences the (undefined) variable "10" and a trailing bare
	// $ passes through; substituted quotes are always doubled.
	got = substitute("cost $10 and $X$", in)
	if got != "cost  and o''brien$" {
		t.Fatalf("got %q", got)
	}
}
