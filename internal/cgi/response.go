package cgi

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unsafe"
)

// Response is a parsed CGI response: the header block a CGI program
// prints before a blank line, then the document body. A CGI program must
// emit at least a Content-Type header; it may set a Status header to
// override the 200 default.
type Response struct {
	Status      int
	ContentType string
	Headers     map[string]string
	Body        Body
	// Recycled, when non-nil, owns the memory Body is a view of and takes it
	// back through Release. A producer that renders into a reused buffer sets
	// it; a consumer that never calls Release keeps an intact Body for good.
	Recycled interface{ Release() }
}

// Release hands Body's memory back to its producer, if the producer asked
// for it: call it once nothing reads Body any more — Body is empty
// afterwards, never another response's page. It is a no-op on every other
// response.
func (r *Response) Release() {
	if b := r.Recycled; b != nil {
		r.Body, r.Recycled = Body{}, nil
		b.Release()
	}
}

// Body is a response's document as runs of bytes in page order. The runs
// are views, not copies: of a string, of the buffer a page was rendered
// into, or of memory other responses share (a report's %ROW block kept on a
// cached result). Nobody modifies a run while a Body holds it.
type Body struct{ runs [][]byte }

// StringBody is s as a body of one run, s's own bytes.
func StringBody(s string) Body {
	if s == "" {
		return Body{}
	}
	return Body{runs: [][]byte{unsafe.Slice(unsafe.StringData(s), len(s))}}
}

// BodyOf is a body of runs, held as given: neither the slice nor a run is
// copied.
func BodyOf(runs [][]byte) Body { return Body{runs: runs} }

// Len is the body's size in bytes.
func (b Body) Len() int {
	n := 0
	for _, r := range b.runs {
		n += len(r)
	}
	return n
}

// String is a copy of the body.
func (b Body) String() string {
	var s strings.Builder
	s.Grow(b.Len())
	for _, r := range b.runs {
		s.Write(r)
	}
	return s.String()
}

// WriteTo writes the body to w, each run in one Write of the run's own
// bytes. It is Write and not io.WriteString on purpose: net/http moves a
// WriteString through its 2 KB buffer, so a 364 KB report would leave as
// ninety 4 KB socket writes, while a Write that large reaches the socket in
// one piece. Write must neither modify nor retain its argument (io.Writer),
// so a run's memory may be reused once WriteTo has returned.
func (b Body) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, r := range b.runs {
		k, err := w.Write(r)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ParseResponse splits raw CGI program output into headers and body.
// Both "\n" and "\r\n" line endings are accepted, as CGI programs of the
// era used either.
func ParseResponse(raw string) (*Response, error) {
	resp := &Response{Status: 200, Headers: map[string]string{}}
	sep := "\n\n"
	idx := strings.Index(raw, "\n\n")
	if crlf := strings.Index(raw, "\r\n\r\n"); crlf >= 0 && (idx < 0 || crlf < idx) {
		idx, sep = crlf, "\r\n\r\n"
	}
	if idx < 0 {
		return nil, fmt.Errorf("cgi: response has no header/body separator")
	}
	head, body := raw[:idx], raw[idx+len(sep):]
	for _, line := range strings.Split(head, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		ci := strings.IndexByte(line, ':')
		if ci < 0 {
			return nil, fmt.Errorf("cgi: malformed header line %q", line)
		}
		name := strings.TrimSpace(line[:ci])
		value := strings.TrimSpace(line[ci+1:])
		resp.Headers[strings.ToLower(name)] = value
		switch strings.ToLower(name) {
		case "content-type":
			resp.ContentType = value
		case "status":
			// "Status: 404 Not Found"
			code := value
			if sp := strings.IndexByte(value, ' '); sp > 0 {
				code = value[:sp]
			}
			n, err := strconv.Atoi(code)
			if err != nil {
				return nil, fmt.Errorf("cgi: bad Status header %q", value)
			}
			resp.Status = n
		}
	}
	if resp.ContentType == "" {
		return nil, fmt.Errorf("cgi: response lacks Content-Type header")
	}
	resp.Body = StringBody(body)
	return resp, nil
}

// WriteHeader renders the CGI header block for a response with the given
// content type (the "Content-Type: text/html\n\n" preamble every CGI
// program of the paper's era printed first).
func WriteHeader(contentType string) string {
	return "Content-Type: " + contentType + "\n\n"
}
