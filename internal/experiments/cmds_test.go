package experiments

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"db2www/internal/cgi"
	"db2www/internal/webclient"
)

// buildCache compiles each cmd binary at most once per test run.
var buildCache sync.Map // cmd name -> string path or error

func buildCmd(t *testing.T, name string) string {
	t.Helper()
	if v, ok := buildCache.Load(name); ok {
		if err, isErr := v.(error); isErr {
			t.Fatal(err)
		}
		return v.(string)
	}
	dir, err := os.MkdirTemp("", "db2www-cmd-")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "db2www/cmd/"+name)
	cmd.Dir = RepoRoot()
	out, err := cmd.CombinedOutput()
	if err != nil {
		err = fmt.Errorf("building %s: %v\n%s", name, err, out)
		buildCache.Store(name, err)
		t.Fatal(err)
	}
	buildCache.Store(name, bin)
	return bin
}

func skipIfShort(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short")
	}
}

func TestCmdMacrocheck(t *testing.T) {
	skipIfShort(t)
	bin := buildCmd(t, "macrocheck")
	macro := filepath.Join(RepoRoot(), "testdata", "macros", "urlquery.d2w")

	out, err := exec.Command(bin, "-strict", macro).CombinedOutput()
	if err != nil {
		t.Fatalf("lint clean macro: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 error(s)") {
		t.Fatalf("output = %s", out)
	}

	out, err = exec.Command(bin, "-extract", "sql", macro).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "SELECT url") {
		t.Fatalf("sql extraction: %v\n%s", err, out)
	}
	out, err = exec.Command(bin, "-vars", macro).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "WHERELIST") {
		t.Fatalf("vars listing: %v\n%s", err, out)
	}

	// A broken macro exits non-zero.
	broken := filepath.Join(t.TempDir(), "broken.d2w")
	if err := os.WriteFile(broken, []byte("%HTML_INPUT{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Without -strict a parse failure is a reported finding, not a
	// failure exit; with -strict it must exit 1.
	if err := exec.Command(bin, broken).Run(); err != nil {
		t.Fatalf("non-strict lint of broken macro must exit 0: %v", err)
	}
	err = exec.Command(bin, "-strict", broken).Run()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("strict lint of broken macro must exit 1, got %v", err)
	}
}

func TestCmdSqlsh(t *testing.T) {
	skipIfShort(t)
	bin := buildCmd(t, "sqlsh")
	out, err := exec.Command(bin, "-dataset", "urldb:15:1",
		"-e", "SELECT COUNT(*) AS n FROM urldb").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "15") || !strings.Contains(string(out), "(1 rows)") {
		t.Fatalf("output = %s", out)
	}

	// Dump, then reload the dump.
	dumpPath := filepath.Join(t.TempDir(), "snap.sql")
	if out, err := exec.Command(bin, "-dataset", "urldb:15:1", "-dump", dumpPath,
		"-e", "SELECT 1").CombinedOutput(); err != nil {
		t.Fatalf("dump: %v\n%s", err, out)
	}
	out, err = exec.Command(bin, "-load", dumpPath,
		"-e", "SELECT COUNT(*) FROM urldb").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "15") {
		t.Fatalf("load: %v\n%s", err, out)
	}

	// A SQL error exits non-zero.
	if err := exec.Command(bin, "-e", "SELECT * FROM nothing").Run(); err == nil {
		t.Fatal("bad SQL must exit non-zero")
	}
}

func TestCmdDB2WWWGetAndPost(t *testing.T) {
	skipIfShort(t)
	bin := buildCmd(t, "db2www")
	macroDir := filepath.Join(RepoRoot(), "testdata", "macros")
	env := []string{
		"DB2WWW_MACRO_DIR=" + macroDir,
		"DB2WWW_DATASET=urldb:30:1",
	}
	get := &cgi.Request{Method: "GET", PathInfo: "/urlquery.d2w/input"}
	resp, err := cgi.InvokeProcess(bin, nil, get, env, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(resp.Body.String(), "Query URL Information") {
		t.Fatalf("GET input: %d %q", resp.Status, resp.Body)
	}
	post := &cgi.Request{
		Method: "POST", PathInfo: "/urlquery.d2w/report",
		ContentType: cgi.FormEncoded,
		Body:        "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title",
	}
	resp, err = cgi.InvokeProcess(bin, nil, post, env, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(resp.Body.String(), "URL Query Result") {
		t.Fatalf("POST report: %d %q", resp.Status, resp.Body)
	}
	// The paper's positional calling convention: argv carries macro+cmd.
	argv := &cgi.Request{Method: "GET"}
	resp, err = cgi.InvokeProcess(bin, []string{"urlquery.d2w", "input"}, argv, env, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(resp.Body.String(), "Query URL Information") {
		t.Fatalf("argv form: %d %q", resp.Status, resp.Body)
	}
	// Unknown macro yields a CGI error page with a Status header.
	bad := &cgi.Request{Method: "GET", PathInfo: "/nosuch.d2w/input"}
	resp, err = cgi.InvokeProcess(bin, nil, bad, env, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("missing macro status = %d", resp.Status)
	}
	// A process that cannot start its database answers 500, not a 200 page
	// that says "Server Error", and does not echo the setting as markup.
	resp, err = cgi.InvokeProcess(bin, nil, get, []string{"DB2WWW_MACRO_DIR=" + macroDir, "DB2WWW_DATASET=nosuch<b>"}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 500 || strings.Contains(resp.Body.String(), "<b>") || !strings.Contains(resp.Body.String(), "nosuch&lt;b&gt;") {
		t.Fatalf("bad dataset: status %d, body %q", resp.Status, resp.Body)
	}
}

// TestCmdGatewaydLifecycle boots the real server binary on a free port,
// drives it over TCP, then SIGTERMs it and checks the -save snapshot is
// written and reloadable via -load.
func TestCmdGatewaydLifecycle(t *testing.T) {
	skipIfShort(t)
	bin := buildCmd(t, "gatewayd")
	macroDir := filepath.Join(RepoRoot(), "testdata", "macros")
	snap := filepath.Join(t.TempDir(), "snap.sql")
	logFile := filepath.Join(t.TempDir(), "access.log")
	addr := "127.0.0.1:39471"

	cmd := exec.Command(bin, "-addr", addr, "-macros", macroDir,
		"-dataset", "urldb:20:1", "-save", snap, "-accesslog", logFile)
	cmd.Dir = RepoRoot()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	}()

	// Wait for the listener.
	c := &webclient.Client{}
	url := "http://" + addr + "/cgi-bin/db2www/urlquery.d2w/input"
	var page *webclient.Page
	var err error
	for i := 0; i < 100; i++ {
		page, err = c.Get(url)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	if page.Status != 200 || page.Title() != "DB2 WWW URL Query" {
		t.Fatalf("page = %d %q", page.Status, page.Title())
	}
	// Drive the full flow over real TCP.
	form, err := page.Form(0)
	if err != nil {
		t.Fatal(err)
	}
	report, err := page.Submit(form)
	if err != nil || report.Status != 200 {
		t.Fatalf("report: %v %d", err, report.Status)
	}
	// Server status page from the access-log middleware: the registry's
	// count of the two pages served.
	status, err := c.Get("http://" + addr + "/server-status")
	if err != nil || !strings.Contains(status.Body, `<LI>db2www_http_requests_total{code="200"}: 2`+"\n") {
		t.Fatalf("server-status: %v %q", err, status.Body)
	}

	// Graceful shutdown with snapshot.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { _, _ = cmd.Process.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("gatewayd did not exit after SIGINT")
	}
	dump, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if !strings.Contains(string(dump), "CREATE TABLE urldb") {
		t.Fatalf("snapshot content: %.200s", dump)
	}
	logData, err := os.ReadFile(logFile)
	if err != nil || !strings.Contains(string(logData), "GET /cgi-bin/db2www/urlquery.d2w/input") {
		t.Fatalf("access log: %v %q", err, logData)
	}
}

// TestCmdGatewaydSurvivesDeepNesting is the reproduction of a request
// that used to end the process: an 800 KB form field of 400 000 nested
// parentheses spliced into a macro's WHERE clause overflowed the SQL
// parser's stack, which is a fatal error, not a panic a handler can
// recover. The server must answer that request with an error page and then
// go on serving. A subprocess, because a fatal error would take a test
// binary down with it.
func TestCmdGatewaydSurvivesDeepNesting(t *testing.T) {
	skipIfShort(t)
	bin := buildCmd(t, "gatewayd")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr, "-macros", filepath.Join("benchmark", "macros", "orders"),
		"-dataset", "orders:200:20:1")
	cmd.Dir = RepoRoot()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()
	report := "http://" + addr + "/cgi-bin/db2www/orders.d2w/report"
	post := func(body string) (int, string, error) {
		resp, err := http.Post(report, "application/x-www-form-urlencoded", strings.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		page, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(page), err
	}
	for i := 0; ; i++ {
		if _, _, err := post("sqlcmd=products&cust_inp=1"); err == nil {
			break
		} else if i == 100 {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// 40 form fields that each dereference the next twice,
	// cust_inp=$(a0)&a0=$(a1)$(a1)&…: 2⁴⁰ dereferences, and with a 1-byte
	// leaf 2⁴⁰ bytes. At 20 fields this took 0.85 s and a 35 MB peak RSS
	// with the leaf, 0.76 s without. Past the bound on one reference's
	// dereferences it fails like a circular one.
	for _, leaf := range []string{"&a40=x", ""} {
		var fan strings.Builder
		fan.WriteString("sqlcmd=products&cust_inp=$(a0)")
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&fan, "&a%d=$(a%d)$(a%d)", i, i+1, i+1)
		}
		start := time.Now()
		if _, page, err := post(fan.String() + leaf); err != nil || !strings.Contains(page, "dereferences") || time.Since(start) > 5*time.Second {
			t.Fatalf("the fan-out request (leaf %q): %v after %v, page %.300q", leaf, err, time.Since(start), page)
		}
	}
	if code, page, err := post("sqlcmd=products&cust_inp=1"); err != nil || code != 200 || !strings.Contains(page, "Order Search Result") {
		t.Fatalf("the request after the fan-out: %v %d %.300q", err, code, page)
	}
	// The process's peak RSS so far (Linux only); at boot it is ≈ 17 MB.
	if status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)); err == nil {
		var kb int
		for _, line := range strings.Split(string(status), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				fmt.Sscan(strings.TrimPrefix(line, "VmHWM:"), &kb)
			}
		}
		t.Logf("peak RSS after the fan-out: %d kB", kb)
		if kb == 0 || kb > 64<<10 {
			t.Errorf("peak RSS after the fan-out: %d kB, bound 64 MB", kb)
		}
	}

	deep := "sqlcmd=products&cust_inp=" + strings.Repeat("(", 400_000) + "1" + strings.Repeat(")", 400_000)
	if _, page, err := post(deep); err != nil || !strings.Contains(page, "SQLSTATE=54001") {
		t.Fatalf("the deep request: %v, page %.300q", err, page)
	}
	// 800 KB of nested "$(" in the same field, which the engine compiles for
	// references: past the nesting bound the rest is literal text, so the
	// value costs linear time (it was O(k²) byte steps, minutes at this size).
	start := time.Now()
	nested := "sqlcmd=products&cust_inp=" + strings.Repeat("$(", 266_000) + "x" + strings.Repeat(")", 266_000)
	if code, page, err := post(nested); err != nil || code != 200 || time.Since(start) > 20*time.Second {
		t.Fatalf("the nested-reference request: %v %d after %v, page %.300q", err, code, time.Since(start), page)
	}
	// Nearly 1 MiB of form fields that dereference one another in a chain,
	// cust_inp=$(a1)&a1=$(a2)&…: past the bound on a chain's depth the
	// reference fails like a circular one (it was quadratic in the fields
	// and one frame group deeper per field).
	var chain strings.Builder
	chain.WriteString("sqlcmd=products&cust_inp=$(a1)")
	for i := 1; chain.Len() < 1<<20-64; i++ {
		fmt.Fprintf(&chain, "&a%d=$(a%d)", i, i+1)
	}
	start = time.Now()
	if _, page, err := post(chain.String()); err != nil || !strings.Contains(page, "reference chain deeper than") || time.Since(start) > 20*time.Second {
		t.Fatalf("the dereference-chain request: %v after %v, page %.300q", err, time.Since(start), page)
	}
	if code, page, err := post("sqlcmd=products&cust_inp=1"); err != nil || code != 200 ||
		!strings.Contains(page, "Order Search Result") || strings.Contains(page, "SQLSTATE") {
		t.Fatalf("the request after it: %v %d %.300q", err, code, page)
	}
}
