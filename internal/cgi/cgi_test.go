package cgi

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		enc := EncodeComponent(s)
		dec, err := DecodeComponent(enc)
		return err == nil && dec == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeComponentClassic(t *testing.T) {
	cases := []struct{ in, want string }{
		{"hello world", "hello+world"},
		{"a&b=c", "a%26b%3Dc"},
		{"100%", "100%25"},
		{"", ""},
		{"ibm", "ibm"},
		{"bikes%", "bikes%25"},
	}
	for _, c := range cases {
		if got := EncodeComponent(c.in); got != c.want {
			t.Errorf("EncodeComponent(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, bad := range []string{"%", "%2", "%zz", "a%G1"} {
		if _, err := DecodeComponent(bad); err == nil {
			t.Errorf("DecodeComponent(%q): expected error", bad)
		}
	}
}

// TestPaperFigure3Variables reproduces the exact variable passing of
// Section 2.2: the six input variables the Web client sends for the
// Figure 3 selections.
func TestPaperFigure3Variables(t *testing.T) {
	qs := "SEARCH=&USE_URL=yes&USE_TITLE=yes&USE_DESC=&DBFIELD=title&DBFIELD=desc&SHOWSQL="
	f, err := ParseForm(qs)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := f.Get("SEARCH"); !ok || v != "" {
		t.Errorf("SEARCH = %q, %v — the empty-but-present case", v, ok)
	}
	if v, _ := f.Get("USE_URL"); v != "yes" {
		t.Errorf("USE_URL = %q", v)
	}
	// DBFIELD is list-valued: multiple selections arrive as repeats.
	if got := f.GetAll("DBFIELD"); len(got) != 2 || got[0] != "title" || got[1] != "desc" {
		t.Errorf("DBFIELD = %v", got)
	}
	if got := f.Names(); len(got) != 6 {
		t.Errorf("distinct names = %v", got)
	}
}

func TestFormEncodeOrderPreserved(t *testing.T) {
	f := NewForm()
	f.Add("b", "2")
	f.Add("a", "1")
	f.Add("b", "3")
	if got := f.Encode(); got != "b=2&a=1&b=3" {
		t.Fatalf("Encode = %q", got)
	}
}

func TestFormRoundTrip(t *testing.T) {
	f := func(names, values []string) bool {
		form := NewForm()
		n := len(names)
		if len(values) < n {
			n = len(values)
		}
		count := 0
		for i := 0; i < n; i++ {
			if names[i] == "" {
				continue
			}
			form.Add(names[i], values[i])
			count++
		}
		back, err := ParseForm(form.Encode())
		if err != nil || back.Len() != count {
			return false
		}
		for i, p := range back.Pairs() {
			if form.Pairs()[i] != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFormSetAndDel(t *testing.T) {
	f := NewForm()
	f.Add("x", "1")
	f.Add("x", "2")
	f.Add("y", "3")
	f.Set("x", "9")
	if got := f.GetAll("x"); len(got) != 1 || got[0] != "9" {
		t.Fatalf("after Set: %v", got)
	}
	f.Del("y")
	if f.Has("y") {
		t.Fatal("y not deleted")
	}
	f.Set("z", "new")
	if v, _ := f.Get("z"); v != "new" {
		t.Fatal("Set on absent name must add")
	}
}

func TestSplitPathInfo(t *testing.T) {
	cases := []struct {
		in          string
		macro, cmd  string
		expectError bool
	}{
		{"/urlquery.d2w/report", "urlquery.d2w", "report", false},
		{"/urlquery.d2w/input", "urlquery.d2w", "input", false},
		{"/apps/shop/orders.d2w/report", "apps/shop/orders.d2w", "report", false},
		{"/onlyone", "", "", true},
		{"", "", "", true},
		{"//", "", "", true},
	}
	for _, c := range cases {
		m, cmd, err := SplitPathInfo(c.in)
		if c.expectError {
			if err == nil {
				t.Errorf("SplitPathInfo(%q): expected error", c.in)
			}
			continue
		}
		if err != nil || m != c.macro || cmd != c.cmd {
			t.Errorf("SplitPathInfo(%q) = %q, %q, %v", c.in, m, cmd, err)
		}
	}
}

func TestRequestInputsGET(t *testing.T) {
	r := &Request{Method: "GET", QueryString: "a=1&b=hello+world"}
	f, err := r.Inputs()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Get("b"); v != "hello world" {
		t.Fatalf("b = %q", v)
	}
}

func TestRequestInputsPOST(t *testing.T) {
	r := &Request{
		Method:      "POST",
		ContentType: FormEncoded,
		Body:        "SEARCH=ib&USE_URL=yes",
		QueryString: "extra=1",
	}
	f, err := r.Inputs()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Get("SEARCH"); v != "ib" {
		t.Fatalf("SEARCH = %q", v)
	}
	if v, _ := f.Get("extra"); v != "1" {
		t.Fatalf("extra = %q (query-string inputs must be honoured on POST)", v)
	}
}

func TestRequestInputsBadContentType(t *testing.T) {
	r := &Request{Method: "POST", ContentType: "multipart/form-data", Body: "x"}
	if _, err := r.Inputs(); err == nil {
		t.Fatal("expected unsupported content type error")
	}
}

func TestEnvContract(t *testing.T) {
	r := &Request{
		Method:      "POST",
		ScriptName:  "/cgi-bin/db2www",
		PathInfo:    "/urlquery.d2w/report",
		QueryString: "a=1",
		Body:        "SEARCH=ib",
		ServerName:  "www.example.com",
		ServerPort:  80,
	}
	env := map[string]string{}
	for _, kv := range r.Env() {
		i := strings.IndexByte(kv, '=')
		env[kv[:i]] = kv[i+1:]
	}
	want := map[string]string{
		"GATEWAY_INTERFACE": "CGI/1.1",
		"REQUEST_METHOD":    "POST",
		"PATH_INFO":         "/urlquery.d2w/report",
		"QUERY_STRING":      "a=1",
		"CONTENT_TYPE":      FormEncoded,
		"CONTENT_LENGTH":    "9",
		"SERVER_NAME":       "www.example.com",
		"SERVER_PORT":       "80",
	}
	for k, v := range want {
		if env[k] != v {
			t.Errorf("env %s = %q, want %q", k, env[k], v)
		}
	}
}

func TestRequestFromEnvRoundTrip(t *testing.T) {
	orig := &Request{
		Method:      "POST",
		ScriptName:  "/cgi-bin/db2www",
		PathInfo:    "/m.d2w/report",
		QueryString: "q=1",
		ContentType: FormEncoded,
		Body:        "a=b",
		ServerName:  "srv",
		ServerPort:  8080,
	}
	env := map[string]string{}
	for _, kv := range orig.Env() {
		i := strings.IndexByte(kv, '=')
		env[kv[:i]] = kv[i+1:]
	}
	back := RequestFromEnv(func(k string) string { return env[k] }, orig.Body)
	if back.Method != "POST" || back.PathInfo != orig.PathInfo ||
		back.QueryString != orig.QueryString || back.Body != orig.Body ||
		back.ServerPort != 8080 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestParseResponse(t *testing.T) {
	resp, err := ParseResponse("Content-Type: text/html\n\n<html>hi</html>")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.ContentType != "text/html" || resp.Body.String() != "<html>hi</html>" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestParseResponseCRLFAndStatus(t *testing.T) {
	resp, err := ParseResponse("Content-Type: text/plain\r\nStatus: 404 Not Found\r\n\r\nnope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 || resp.Body.String() != "nope" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestParseResponseErrors(t *testing.T) {
	for _, bad := range []string{
		"no separator at all",
		"X-Other: 1\n\nbody",          // missing Content-Type
		"not a header\n\nbody",        // malformed header
		"Status: abc\n\nContent: x\n", // bad status (and missing CT)
	} {
		if _, err := ParseResponse(bad); err == nil {
			t.Errorf("ParseResponse(%q): expected error", bad)
		}
	}
}

func TestHandlerFunc(t *testing.T) {
	h := HandlerFunc(func(req *Request) (*Response, error) {
		return &Response{Status: 200, ContentType: "text/html", Body: StringBody("ok:" + req.PathInfo)}, nil
	})
	resp, err := h.ServeCGI(&Request{PathInfo: "/x/y"})
	if err != nil || resp.Body.String() != "ok:/x/y" {
		t.Fatalf("resp = %+v, err = %v", resp, err)
	}
}

// failAfter accepts n Writes and fails the next.
type failAfter struct {
	n   int
	got []string
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(w.got) == w.n {
		return 0, errors.New("gone")
	}
	w.got = append(w.got, string(p))
	return len(p), nil
}

// TestBodyRuns: a body is its runs in order, one Write each, and WriteTo
// stops at the first failed Write with the bytes written so far.
func TestBodyRuns(t *testing.T) {
	b := BodyOf([][]byte{[]byte("<P>"), []byte("row\nrow\n"), []byte("</P>")})
	if b.Len() != 15 || b.String() != "<P>row\nrow\n</P>" {
		t.Fatalf("Len %d, String %q", b.Len(), b.String())
	}
	all := &failAfter{n: 3}
	if n, err := b.WriteTo(all); n != 15 || err != nil || strings.Join(all.got, "|") != "<P>|row\nrow\n|</P>" {
		t.Errorf("WriteTo: %d, %v, writes %q", n, err, all.got)
	}
	cut := &failAfter{n: 1}
	if n, err := b.WriteTo(cut); n != 3 || err == nil {
		t.Errorf("WriteTo past a failed Write: %d, %v", n, err)
	}
	if s := StringBody(""); s.Len() != 0 || s.String() != "" {
		t.Errorf("StringBody(\"\"): %d bytes", s.Len())
	}
}
