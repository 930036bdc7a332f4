package gateway

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unsafe"

	"db2www/internal/cgi"
)

// recordingWriter is a ResponseWriter that records how the body reached
// it. It has a WriteString on purpose: the handler must not take it (see
// pageBytes).
type recordingWriter struct {
	header       http.Header
	status       int
	writes       [][]byte
	writeStrings int
}

func (w *recordingWriter) Header() http.Header  { return w.header }
func (w *recordingWriter) WriteHeader(code int) { w.status = code }
func (w *recordingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return len(p), nil
}
func (w *recordingWriter) WriteString(s string) (int, error) {
	w.writeStrings++
	return len(s), nil
}

// TestPageIsWrittenOnceWithoutCopy: behind both counting wrappers (the
// access log's and the handler's) the finished page arrives in a single
// Write whose bytes are the page string's own, and the access log still
// counts them.
func TestPageIsWrittenOnceWithoutCopy(t *testing.T) {
	page := strings.Repeat("<LI>row</LI>\n", 30000) // far beyond net/http's buffers
	h := &Handler{App: cgi.HandlerFunc(func(*cgi.Request) (*cgi.Response, error) {
		return &cgi.Response{Status: 200, ContentType: "text/html", Body: page}, nil
	})}
	var logged syncWriter
	al := NewAccessLog(h, &logged)

	w := &recordingWriter{header: http.Header{}}
	al.ServeHTTP(w, httptest.NewRequest("GET", "http://server/cgi-bin/db2www/any.d2w/report", nil))

	if w.status != 200 || w.writeStrings != 0 || len(w.writes) != 1 {
		t.Fatalf("status %d, %d Write and %d WriteString calls; want 200, 1, 0", w.status, len(w.writes), w.writeStrings)
	}
	if got := w.writes[0]; len(got) != len(page) || unsafe.SliceData(got) != unsafe.StringData(page) {
		t.Errorf("the page was copied on its way out (%d bytes written, page has %d)", len(got), len(page))
	}
	if !strings.Contains(logged.String(), " 200 390000") {
		t.Errorf("access log does not count the body: %q", logged.String())
	}
}
