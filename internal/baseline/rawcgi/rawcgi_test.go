package rawcgi

import (
	"strings"
	"testing"

	"db2www/internal/cgi"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

func setup(t *testing.T) *App {
	t.Helper()
	db := sqldb.NewDatabase("RAWDB")
	if err := workload.URLDB(db, 40, 7); err != nil {
		t.Fatal(err)
	}
	sqldriver.Register("RAWDB", db)
	t.Cleanup(func() { sqldriver.Unregister("RAWDB") })
	return &App{Database: "RAWDB"}
}

func TestInputForm(t *testing.T) {
	a := setup(t)
	resp, err := a.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/urlquery/input"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(resp.Body.String(), "<FORM") {
		t.Fatalf("resp = %d %q", resp.Status, resp.Body)
	}
}

func TestReportFlow(t *testing.T) {
	a := setup(t)
	resp, err := a.ServeCGI(&cgi.Request{
		Method:      "POST",
		PathInfo:    "/urlquery/report",
		ContentType: cgi.FormEncoded,
		Body:        "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if !strings.Contains(resp.Body.String(), "<A HREF=\"http://") {
		t.Fatalf("no hyperlinks in report:\n%s", resp.Body)
	}
}

func TestQuoteDoubling(t *testing.T) {
	a := setup(t)
	resp, err := a.ServeCGI(&cgi.Request{
		Method:      "POST",
		PathInfo:    "/urlquery/report",
		ContentType: cgi.FormEncoded,
		Body:        "SEARCH=" + cgi.EncodeComponent("o'brien' OR '1'='1") + "&USE_URL=yes",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The doubled quotes keep this a single LIKE pattern: no rows match,
	// and no SQL error leaks.
	if strings.Contains(resp.Body.String(), "Error") {
		t.Fatalf("quote handling failed:\n%s", resp.Body)
	}
}

func TestBadPathAndCommand(t *testing.T) {
	a := setup(t)
	resp, _ := a.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/nocommand"})
	if resp.Status != 400 {
		t.Fatalf("status = %d", resp.Status)
	}
	resp, _ = a.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/x/bogus"})
	if resp.Status != 400 {
		t.Fatalf("status = %d", resp.Status)
	}
}
