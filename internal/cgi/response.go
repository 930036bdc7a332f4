package cgi

import (
	"fmt"
	"strconv"
	"strings"
)

// Response is a parsed CGI response: the header block a CGI program
// prints before a blank line, then the document body. A CGI program must
// emit at least a Content-Type header; it may set a Status header to
// override the 200 default.
type Response struct {
	Status      int
	ContentType string
	Headers     map[string]string
	Body        string
	// Recycled, when non-nil, owns the memory Body is a view of and takes it
	// back through Release. A producer that renders into a reused buffer sets
	// it; a consumer that never calls Release keeps an intact Body for good.
	Recycled interface{ Release() }
}

// Release hands Body's memory back to its producer, if the producer asked
// for it: call it once nothing reads Body any more — Body is "" afterwards,
// never another response's page. It is a no-op on every other response.
func (r *Response) Release() {
	if b := r.Recycled; b != nil {
		r.Body, r.Recycled = "", nil
		b.Release()
	}
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
	resp.Body = body
	return resp, nil
}

// WriteHeader renders the CGI header block for a response with the given
// content type (the "Content-Type: text/html\n\n" preamble every CGI
// program of the paper's era printed first).
func WriteHeader(contentType string) string {
	return "Content-Type: " + contentType + "\n\n"
}
