package gateway

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"db2www/internal/sqldb"
)

// appendixAForm is the form Appendix A's input page posts as printed.
const appendixAForm = "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=%24%28hidden_a%29&SHOWSQL="

// post sends body to target through h, as a browser posts a form.
func post(h http.Handler, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "http://localhost"+target, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	h.ServeHTTP(rec, req)
	return rec
}

// fanOut is a posted dereference fan-out past maxDerefs: SEARCH=$(A0),
// each of A0…A5 eight references to the next, A6=x — 8⁶ dereferences.
func fanOut() string {
	v := url.Values{"SEARCH": {"$(A0)"}, "USE_URL": {"yes"}, "A6": {"x"}}
	for i := 0; i < 6; i++ {
		v.Set("A"+strconv.Itoa(i), strings.Repeat("$(A"+strconv.Itoa(i+1)+")", 8))
	}
	return v.Encode()
}

// clientErrors are posts to urlquery.d2w/report whose fault is the
// request's: each once answered 500, counted in the 5xx burst that takes
// the server out of rotation.
var clientErrors = []struct{ name, body string }{
	{"RPT_MAXROWS=A", appendixAForm + "&RPT_MAXROWS=A"},
	{"RPT_STARTROW=-1", appendixAForm + "&RPT_STARTROW=-1"},
	{"a cycle of posted fields", "USE_URL=yes&SEARCH=%24%28X%29&X=%24%28SEARCH%29"},
	{"a posted fan-out past maxDerefs", fanOut()},
}

// TestClientInputErrorsAre400: an error whose value at fault came from the
// request answers 400 with the page a 500 has, and leaves the server
// ready; the same error in the macro's own definitions stays a 500.
func TestClientInputErrorsAre400(t *testing.T) {
	macros := t.TempDir()
	src, err := os.ReadFile(filepath.Join(repoRoot(t), "testdata", "macros", "urlquery.d2w"))
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string]string{
		"urlquery.d2w": string(src),
		"cycle.d2w":    "%define{\nA = \"$(B)\"\nB = \"$(A)\"\n%}\n%HTML_REPORT{$(A)%}\n",
		"maxrows.d2w": "%define{\nDATABASE = \"CELDIAL\"\nRPT_MAXROWS = \"A\"\n%}\n" +
			"%SQL{SELECT url FROM urldb%}\n%HTML_REPORT{%EXEC_SQL%}\n",
	} {
		if err := os.WriteFile(filepath.Join(macros, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultServerConfig()
	cfg.Macros, cfg.Lint = macros, "off" // the preflight would refuse cycle.d2w
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, c := range clientErrors {
		rec := post(h, "/cgi-bin/db2www/urlquery.d2w/report", c.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "Macro processing failed") {
			t.Errorf("%s: %d, want 400 with the macro's error page:\n%s", c.name, rec.Code, rec.Body)
		}
	}
	// Twelve of them within a second are no 5xx burst.
	for i := 0; i < 12; i++ {
		post(h, "/cgi-bin/db2www/urlquery.d2w/report", clientErrors[0].body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "http://localhost/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/readyz after client errors: %d %s", rec.Code, rec.Body)
	}
	for _, own := range []string{"cycle.d2w", "maxrows.d2w"} {
		if rec := post(h, "/cgi-bin/db2www/"+own+"/report", ""); rec.Code != http.StatusInternalServerError {
			t.Errorf("%s, the macro's own error: %d, want 500", own, rec.Code)
		}
	}
}

// refusedSQL is one statement of each construct the engine refuses with
// 0A000.
var refusedSQL = []struct{ construct, sql string }{
	{"UNION", "SELECT url FROM urldb UNION SELECT title FROM urldb"},
	{"scalar subquery", "SELECT url FROM urldb WHERE title = (SELECT MAX(title) FROM urldb)"},
	{"IN subquery", "SELECT url FROM urldb WHERE url IN (SELECT url FROM urldb)"},
	{"EXISTS", "SELECT url FROM urldb WHERE EXISTS (SELECT 1 FROM urldb)"},
	{"derived table", "SELECT d.url FROM (SELECT url FROM urldb) d"},
	{"derived table joined", "SELECT u.url FROM urldb u JOIN (SELECT url FROM urldb) d ON d.url = u.url"},
	{"HAVING", "SELECT title, COUNT(*) FROM urldb GROUP BY title HAVING COUNT(*) > 1"},
	{"DISTINCT", "SELECT DISTINCT title FROM urldb"},
	{"COUNT(DISTINCT)", "SELECT COUNT(DISTINCT title) FROM urldb"},
	{"LIMIT", "SELECT url FROM urldb ORDER BY url LIMIT 5"},
	{"OFFSET", "SELECT url FROM urldb ORDER BY url OFFSET 5"},
	{"FETCH FIRST", "SELECT url FROM urldb ORDER BY url FETCH FIRST 5 ROWS ONLY"},
	{"ALTER TABLE", "ALTER TABLE urldb ADD COLUMN rating INTEGER"},
	{"EXPLAIN of a UNION", "EXPLAIN SELECT url FROM urldb UNION SELECT title FROM urldb"},
	{"BETWEEN", "SELECT url FROM urldb WHERE title BETWEEN 'A' AND 'M'"},
	{"NOT BETWEEN", "SELECT url FROM urldb WHERE title NOT BETWEEN 'A' AND 'M'"},
	{"CAST", "SELECT CAST(title AS VARCHAR(10)) FROM urldb"},
	{"LIKE ... ESCAPE", "SELECT url FROM urldb WHERE title LIKE 'IBM!_%' ESCAPE '!'"},
	{"||", "SELECT url || title FROM urldb"},
	{"|| in a LIKE pattern", "SELECT url FROM urldb WHERE url LIKE title || '%'"},
}

// refuseServer is a server with Appendix A's macro and refuse.d2w, whose
// one %SQL section runs the statement STMT and whose %SQL_MESSAGE catches
// 0A000 and 42883.
func refuseServer(t *testing.T) *Server {
	t.Helper()
	macros := t.TempDir()
	src, err := os.ReadFile(filepath.Join(repoRoot(t), "testdata", "macros", "urlquery.d2w"))
	if err != nil {
		t.Fatal(err)
	}
	const refuse = `%define DATABASE = "CELDIAL"
%SQL{$(STMT)
%SQL_MESSAGE{
0A000 : "<P>refused: $(SQL_STATE)</P>" : continue
42883 : "<P>no such function: $(SQL_STATE)</P>" : continue
%}
%}
%HTML_REPORT{%EXEC_SQL%}
`
	for name, text := range map[string]string{"urlquery.d2w": string(src), "refuse.d2w": refuse} {
		if err := os.WriteFile(filepath.Join(macros, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultServerConfig()
	cfg.Macros = macros
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestUnsupportedSQLIs0A000: every construct the engine no longer serves
// answers SQLSTATE 0A000 — through Session.Exec, and through a %SQL
// section whose %SQL_MESSAGE catches it — and Appendix A's DBFIELDS
// vector, which a UNION once turned into all of urldb, returns no row.
func TestUnsupportedSQLIs0A000(t *testing.T) {
	srv := refuseServer(t)
	sess := sqldb.NewSession(srv.DB)
	defer sess.Close()
	h := srv.Handler()
	for _, c := range refusedSQL {
		_, err := sess.Exec(c.sql)
		var se *sqldb.Error
		if !errors.As(err, &se) || se.Code != sqldb.CodeFeature {
			t.Errorf("%s: Session.Exec = %v, want SQLSTATE %s", c.construct, err, sqldb.CodeFeature)
		}
		rec := post(h, "/cgi-bin/db2www/refuse.d2w/report", url.Values{"STMT": {c.sql}}.Encode())
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "<P>refused: 0A000</P>") {
			t.Errorf("%s: the %%SQL_MESSAGE page: %d\n%s", c.construct, rec.Code, rec.Body)
		}
	}

	rec := post(h, "/cgi-bin/db2www/urlquery.d2w/report",
		"SEARCH=ib&USE_URL=yes&DBFIELDS="+url.QueryEscape("title FROM urldb UNION SELECT url, title"))
	if rows := strings.Count(rec.Body.String(), "<LI> <A HREF="); rec.Code != http.StatusOK || rows != 0 ||
		!strings.Contains(rec.Body.String(), "SQLSTATE=0A000") {
		t.Errorf("Appendix A's DBFIELDS UNION: %d with %d urldb rows, want 200 with none and the 0A000 message:\n%.2000s",
			rec.Code, rows, rec.Body)
	}
}

// TestRemovedFunctionsAre42883: a function the engine does not have
// answers SQLSTATE 42883 (undefined_function), through Session.Exec and
// through a %SQL_MESSAGE that catches it, while LENGTH, ROUND and the
// aggregates answer. LEFT and RIGHT are keywords of the join grammar: a
// call of either is a syntax error.
func TestRemovedFunctionsAre42883(t *testing.T) {
	srv := refuseServer(t)
	sess := sqldb.NewSession(srv.DB)
	defer sess.Close()
	h := srv.Handler()
	run := func(sql string) (string, string) {
		_, err := sess.Exec(sql)
		var se *sqldb.Error
		code := ""
		if errors.As(err, &se) {
			code = se.Code
		} else if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rec := post(h, "/cgi-bin/db2www/refuse.d2w/report", url.Values{"STMT": {sql}}.Encode())
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d\n%s", sql, rec.Code, rec.Body)
		}
		return code, rec.Body.String()
	}
	for _, name := range []string{"UPPER", "UCASE", "LOWER", "LCASE", "TRIM", "LTRIM", "RTRIM",
		"SUBSTR", "SUBSTRING", "REPLACE", "CONCAT", "POSITION", "LOCATE", "INSTR", "REPEAT",
		"COALESCE", "IFNULL", "VALUE", "NULLIF", "ABS", "MOD", "FLOOR", "CEIL", "CEILING",
		"LEN", "CHAR_LENGTH", "NOW", "CURRENT_TIMESTAMP", "CURDATE", "CURRENT_DATE",
		"CURTIME", "CURRENT_TIME", "NOSUCHFN"} {
		sql := "SELECT " + name + "(title) FROM urldb"
		code, page := run(sql)
		if code != sqldb.CodeUndefinedFunction || !strings.Contains(page, "<P>no such function: 42883</P>") {
			t.Errorf("%s: SQLSTATE %q, want %s; the %%SQL_MESSAGE page:\n%s", sql, code, sqldb.CodeUndefinedFunction, page)
		}
	}
	for _, sql := range []string{"SELECT LEFT(title, 2) FROM urldb", "SELECT RIGHT(title, 2) FROM urldb"} {
		if code, _ := run(sql); code != sqldb.CodeSyntax {
			t.Errorf("%s: SQLSTATE %q, want %s", sql, code, sqldb.CodeSyntax)
		}
	}
	for _, sql := range []string{
		"SELECT LENGTH(title), ROUND(LENGTH(url) / 3.0, 1) FROM urldb",
		"SELECT COUNT(*), COUNT(title), SUM(LENGTH(url)), AVG(LENGTH(url)), MIN(title), MAX(url) FROM urldb",
	} {
		if code, page := run(sql); code != "" || strings.Contains(page, "<P>") {
			t.Errorf("%s: SQLSTATE %q:\n%s", sql, code, page)
		}
	}
}

// TestUnterminatedCommentIsASyntaxError: Appendix A's field list is
// substituted outside a literal, so DBFIELDS could end the statement with
// an unclosed /*, which ran to the end of the text and took the WHERE
// clause with it: every urldb row, for a search that matches none. An
// unclosed comment is a syntax error (42601) now, in the lexer the shaper
// reads the text with too.
func TestUnterminatedCommentIsASyntaxError(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Macros = filepath.Join(repoRoot(t), "testdata", "macros")
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	rec := post(h, "/cgi-bin/db2www/urlquery.d2w/report",
		"SEARCH=zzzzqq&USE_URL=yes&DBFIELDS="+url.QueryEscape("title FROM urldb /*"))
	if rows := strings.Count(rec.Body.String(), "<LI> <A HREF="); rec.Code != http.StatusOK || rows != 0 ||
		!strings.Contains(rec.Body.String(), "SQLSTATE=42601") {
		t.Errorf("Appendix A's DBFIELDS ending in /*: %d with %d urldb rows, want 200 with none and the 42601 message:\n%.2000s",
			rec.Code, rows, rec.Body)
	}
}

// TestUnservedMethodIs405: a method other than GET, HEAD and POST answers
// 405 with the methods a CGI path serves, before the macro is looked up,
// in-process and in the fork/exec mode alike (there the program named does
// not exist, so reaching it would be a 502).
func TestUnservedMethodIs405(t *testing.T) {
	inproc, app := newTestStack(t)
	forked := &Handler{CGIProgram: filepath.Join(t.TempDir(), "no-such-program"), Logf: t.Logf}
	for name, h := range map[string]*Handler{"in-process": inproc, "cgi": forked} {
		for _, method := range []string{"PUT", "DELETE", "OPTIONS", "PATCH", "TRACE"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, "http://localhost/cgi-bin/db2www/urlquery.d2w/report", nil))
			if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, HEAD, POST" {
				t.Errorf("%s %s: status %d, Allow %q; want 405, %q", name, method, rec.Code, rec.Header().Get("Allow"), "GET, HEAD, POST")
			}
		}
	}
	if hits, misses := app.MacroCacheStats(); hits+misses != 0 {
		t.Errorf("the macro was looked up %d times for a method the gateway does not serve", hits+misses)
	}
	for _, method := range []string{"GET", "HEAD"} {
		rec := httptest.NewRecorder()
		inproc.ServeHTTP(rec, httptest.NewRequest(method, "http://localhost/cgi-bin/db2www/urlquery.d2w/input", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", method, rec.Code)
		}
	}
}
