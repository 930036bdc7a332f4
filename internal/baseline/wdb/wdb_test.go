package wdb

import (
	"strings"
	"testing"

	"db2www/internal/cgi"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

func setup(t *testing.T) {
	t.Helper()
	db := sqldb.NewDatabase("WDBDB")
	if err := workload.Orders(db, 10, 5, 3); err != nil {
		t.Fatal(err)
	}
	sqldriver.Register("WDBDB", db)
	t.Cleanup(func() { sqldriver.Unregister("WDBDB") })
}

func TestGenerateFDF(t *testing.T) {
	setup(t)
	fdf, err := GenerateFDF("WDBDB", "products")
	if err != nil {
		t.Fatal(err)
	}
	if fdf.Table != "products" || len(fdf.Fields) != 5 {
		t.Fatalf("fdf = %+v", fdf)
	}
	byName := map[string]Field{}
	for _, f := range fdf.Fields {
		byName[f.Column] = f
	}
	if byName["price"].Type != "num" || byName["product_name"].Type != "char" {
		t.Fatalf("field types wrong: %+v", byName)
	}
}

func TestFDFMarshalParseRoundTrip(t *testing.T) {
	setup(t)
	fdf, err := GenerateFDF("WDBDB", "customers")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseFDF(fdf.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Table != fdf.Table || len(back.Fields) != len(fdf.Fields) {
		t.Fatalf("round trip: %+v vs %+v", back, fdf)
	}
	for i := range back.Fields {
		if back.Fields[i] != fdf.Fields[i] {
			t.Errorf("field %d: %+v vs %+v", i, back.Fields[i], fdf.Fields[i])
		}
	}
}

func TestParseFDFErrors(t *testing.T) {
	for _, bad := range []string{
		"no equals sign",
		"label = x", // attribute outside FIELD
		"NAME = x",  // missing TABLE/DATABASE
		"WHAT = x\nTABLE=t\nDATABASE=d",
	} {
		if _, err := ParseFDF(bad); err == nil {
			t.Errorf("ParseFDF(%q): expected error", bad)
		}
	}
}

func TestAutoForm(t *testing.T) {
	setup(t)
	fdf, _ := GenerateFDF("WDBDB", "products")
	a := &App{FDF: fdf}
	resp, err := a.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/products/input"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`NAME="custid"`, `NAME="product_name"`, `NAME="price"`} {
		if !strings.Contains(resp.Body.String(), want) {
			t.Errorf("auto form missing %s:\n%s", want, resp.Body)
		}
	}
}

func TestQueryConstraints(t *testing.T) {
	setup(t)
	fdf, _ := GenerateFDF("WDBDB", "products")
	a := &App{FDF: fdf}
	resp, err := a.ServeCGI(&cgi.Request{
		Method: "GET", PathInfo: "/products/report",
		QueryString: "custid=10000&product_name=bikes",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Body.String(), "<TABLE") {
		t.Fatalf("report:\n%s", resp.Body)
	}
	// Every data row must be for custid 10000.
	for _, line := range strings.Split(resp.Body.String(), "\n") {
		if strings.HasPrefix(line, "<TR><TD>") && !strings.Contains(line, "<TD>10000</TD>") {
			// first TD is prodid; check second
			if !strings.Contains(line, ">10000<") {
				t.Errorf("row not constrained: %s", line)
			}
		}
	}
}

func TestNumericRangeConstraint(t *testing.T) {
	setup(t)
	fdf, _ := GenerateFDF("WDBDB", "products")
	a := &App{FDF: fdf}
	resp, err := a.ServeCGI(&cgi.Request{
		Method: "GET", PathInfo: "/products/report",
		QueryString: "price=" + cgi.EncodeComponent("<100"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Body.String(), "row(s).") {
		t.Fatalf("report:\n%s", resp.Body)
	}
}

func TestNumericConstraintValidation(t *testing.T) {
	setup(t)
	fdf, _ := GenerateFDF("WDBDB", "products")
	a := &App{FDF: fdf}
	resp, err := a.ServeCGI(&cgi.Request{
		Method: "GET", PathInfo: "/products/report",
		QueryString: "price=" + cgi.EncodeComponent("1; DROP TABLE products"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Body.String(), "query failed") {
		t.Fatalf("hostile numeric constraint must be rejected:\n%s", resp.Body)
	}
	// Table must still exist.
	engine, _ := sqldriver.Lookup("WDBDB")
	if _, err := engine.Table("products"); err != nil {
		t.Fatal("products table was dropped!")
	}
}

func TestUnknownTable(t *testing.T) {
	setup(t)
	if _, err := GenerateFDF("WDBDB", "nosuch"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := GenerateFDF("NODB", "x"); err == nil {
		t.Fatal("expected error")
	}
}
