package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"db2www/internal/sqldb"
)

// The /debug/statements error contract: an unknown digest answers 404
// with a JSON error body, matching /debug/flight.
func TestStatementsHandlerUnknownDigest404JSON(t *testing.T) {
	db := sqldb.NewDatabase("T")
	h := StatementsHandler(db)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/statements?digest=deadbeef", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown digest status = %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content-type = %q", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("non-JSON 404 body %q: %v", rec.Body.String(), err)
	}
	if !strings.Contains(body["error"], "deadbeef") {
		t.Fatalf("error body = %v", body)
	}
}

func TestStatementsHandlerList(t *testing.T) {
	db := sqldb.NewDatabase("T")
	s := sqldb.NewSession(db)
	if _, err := s.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	StatementsHandler(db).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/statements", nil))
	if rec.Code != 200 {
		t.Fatalf("list status = %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("list body: %v", err)
	}
	rows := body["statements"].([]any)
	if len(rows) == 0 {
		t.Fatal("no statements tracked after executing SQL")
	}
	// Round-trip: the digest from the list resolves in the detail view.
	digest := rows[0].(map[string]any)["digest"].(string)
	rec = httptest.NewRecorder()
	StatementsHandler(db).ServeHTTP(rec,
		httptest.NewRequest("GET", "/debug/statements?digest="+digest, nil))
	if rec.Code != 200 {
		t.Fatalf("detail status for listed digest = %d", rec.Code)
	}
}
