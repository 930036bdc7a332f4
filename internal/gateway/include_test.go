package gateway

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"db2www/internal/cgi"
)

func TestAppResolvesIncludes(t *testing.T) {
	_, app := newTestStack(t)
	if err := os.WriteFile(filepath.Join(app.MacroDir, "site.d2i"),
		[]byte(`%define SITE = "Celdial Web"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(app.MacroDir, "with_include.d2w"),
		[]byte("%INCLUDE \"site.d2i\"\n%HTML_INPUT{<H1>$(SITE)</H1>%}"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := app.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/with_include.d2w/input"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(resp.Body.String(), "<H1>Celdial Web</H1>") {
		t.Fatalf("resp = %d %q", resp.Status, resp.Body)
	}
}

func TestAppIncludeSubdirectory(t *testing.T) {
	_, app := newTestStack(t)
	if err := os.MkdirAll(filepath.Join(app.MacroDir, "shared"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(app.MacroDir, "shared", "footer.d2i"),
		[]byte(`%define FOOTER = "(c) 1996"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(app.MacroDir, "page.d2w"),
		[]byte("%INCLUDE \"shared/footer.d2i\"\n%HTML_INPUT{$(FOOTER)%}"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := app.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/page.d2w/input"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Body.String(), "(c) 1996") {
		t.Fatalf("resp = %q", resp.Body)
	}
}

func TestAppIncludeTraversalBlocked(t *testing.T) {
	_, app := newTestStack(t)
	outside := filepath.Join(filepath.Dir(app.MacroDir), "leak.d2i")
	if err := os.WriteFile(outside, []byte(`%define SECRET = "leaked"`), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(outside)
	if err := os.WriteFile(filepath.Join(app.MacroDir, "evil.d2w"),
		[]byte("%INCLUDE \"../leak.d2i\"\n%HTML_INPUT{$(SECRET)%}"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := app.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/evil.d2w/input"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status == 200 && strings.Contains(resp.Body.String(), "leaked") {
		t.Fatalf("include traversal leaked content:\n%s", resp.Body)
	}
}

func TestAppIncludeMissingIs500(t *testing.T) {
	_, app := newTestStack(t)
	if err := os.WriteFile(filepath.Join(app.MacroDir, "broken.d2w"),
		[]byte("%INCLUDE \"gone.d2i\"\n%HTML_INPUT{x%}"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := app.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/broken.d2w/input"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 500 {
		t.Fatalf("status = %d", resp.Status)
	}
}

// TestAppIncludeCycleNamesTheChain: a macro that includes itself through
// another file is a 500 whose page names the chain, at the include that
// closes it.
func TestAppIncludeCycleNamesTheChain(t *testing.T) {
	_, app := newTestStack(t)
	for name, src := range map[string]string{
		"loop.d2w": "%INCLUDE \"loop.d2i\"\n%HTML_INPUT{x%}",
		"loop.d2i": "%{ back %}\n%INCLUDE \"loop.d2w\"",
	} {
		if err := os.WriteFile(filepath.Join(app.MacroDir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := app.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/loop.d2w/input"})
	if err != nil {
		t.Fatal(err)
	}
	if want := "loop.d2i:2: %INCLUDE cycle: loop.d2w -&gt; loop.d2i -&gt; loop.d2w"; resp.Status != 500 || !strings.Contains(resp.Body.String(), want) {
		t.Fatalf("resp = %d %q, want 500 naming %s", resp.Status, resp.Body, want)
	}
}

// TestAppIncludeEditInvalidatesCache: the parsed-macro cache must notice
// an edit to a file the macro %INCLUDEs, and an include that vanished,
// without the including file being touched — and must keep hitting while
// nothing changes.
func TestAppIncludeEditInvalidatesCache(t *testing.T) {
	_, app := newTestStack(t)
	site := filepath.Join(app.MacroDir, "site.d2i")
	write := func(title string) {
		t.Helper()
		if err := os.WriteFile(site, []byte(`%define SITE = "`+title+`"`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("one")
	if err := os.WriteFile(filepath.Join(app.MacroDir, "with_include.d2w"),
		[]byte("%INCLUDE \"site.d2i\"\n%HTML_INPUT{<H1>$(SITE)</H1>%}"), 0o644); err != nil {
		t.Fatal(err)
	}
	get := func() *cgi.Response {
		t.Helper()
		resp, err := app.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/with_include.d2w/input"})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := 0; i < 3; i++ {
		if resp := get(); !strings.Contains(resp.Body.String(), "<H1>one</H1>") {
			t.Fatalf("resp = %d %q", resp.Status, resp.Body)
		}
	}
	if hits, misses := app.MacroCacheStats(); hits != 2 || misses != 1 {
		t.Fatalf("unedited: hits, misses = %d, %d, want 2, 1", hits, misses)
	}
	write("second") // another size, so the edit shows whatever the mtime granularity
	if resp := get(); !strings.Contains(resp.Body.String(), "<H1>second</H1>") {
		t.Fatalf("after editing the include: %q", resp.Body)
	}
	if resp := get(); !strings.Contains(resp.Body.String(), "<H1>second</H1>") {
		t.Fatalf("after editing the include, cached: %q", resp.Body)
	}
	if hits, misses := app.MacroCacheStats(); hits != 3 || misses != 2 {
		t.Fatalf("edited once: hits, misses = %d, %d, want 3, 2", hits, misses)
	}
	if err := os.Remove(site); err != nil {
		t.Fatal(err)
	}
	if resp := get(); resp.Status != 500 {
		t.Fatalf("include removed: status %d %q, want the parse error and not the cached page", resp.Status, resp.Body)
	}
}
