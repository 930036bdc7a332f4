package gateway

import (
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// fuzzRequestBound is how long one request of FuzzRequest may take. The
// widest request a form can ask for is a fan-out cut at maxDerefs, a few
// milliseconds; the bound leaves room for -race and a busy machine.
const fuzzRequestBound = 2 * time.Second

// FuzzRequest posts form bodies through Server.Handler() to every macro of
// testdata/macros and benchmark/macros, served from one directory under
// -lint strict over a database holding both datasets. Whatever the body,
// a request answers below 500 — a client's mistake is a 4xx, and nothing a
// form says is the server's fault — leaves no snapshot open and finishes
// within fuzzRequestBound. Run with
//
//	go test -run '^$' -fuzz '^FuzzRequest$' -fuzztime 20s ./internal/gateway
func FuzzRequest(f *testing.F) {
	root := repoRoot(f)
	macros := f.TempDir()
	var names []string
	for _, dir := range []string{"testdata/macros", "benchmark/macros/urldb", "benchmark/macros/orders"} {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.d2w"))
		if err != nil || len(files) == 0 {
			f.Fatalf("no macros in %s: %v", dir, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			// One directory serves both corpora: the benchmark's
			// urlquery.d2w is not Appendix A's.
			name := strings.ReplaceAll(strings.TrimPrefix(dir, "benchmark/"), "/", "_") + "_" + filepath.Base(file)
			if err := os.WriteFile(filepath.Join(macros, name), src, 0o644); err != nil {
				f.Fatal(err)
			}
			names = append(names, name)
		}
	}
	slices.Sort(names)
	cfg := DefaultServerConfig()
	cfg.Macros, cfg.Lint, cfg.Dataset = macros, "strict", "urldb:50:1,orders:4:3:1"
	srv, err := NewServer(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	h := srv.Handler()

	appendixA := uint8(slices.Index(names, "testdata_macros_urlquery.d2w"))
	for _, c := range clientErrors {
		f.Add(appendixA, true, c.body)
	}
	f.Add(appendixA, true, appendixAForm)
	f.Add(appendixA, false, appendixAForm)
	f.Add(uint8(slices.Index(names, "macros_orders_orders.d2w")), true, "sqlcmd=ship&prod_id=2")
	f.Add(uint8(slices.Index(names, "macros_urldb_detail.d2w")), true, "U=http%3A%2F%2Fwww.ibm1.com%2F")

	f.Fuzz(func(t *testing.T, macro uint8, report bool, body string) {
		target := "/cgi-bin/db2www/" + names[int(macro)%len(names)] + "/input"
		if report {
			target = strings.TrimSuffix(target, "input") + "report"
		}
		start := time.Now()
		rec := post(h, target, body)
		if took := time.Since(start); took > fuzzRequestBound {
			t.Errorf("POST %s %q took %v, bound %v", target, body, took, fuzzRequestBound)
		}
		if rec.Code >= http.StatusInternalServerError {
			t.Errorf("POST %s %q: %d\n%.1000s", target, body, rec.Code, rec.Body)
		}
		if tx := srv.DB.TxnStats(); tx.ActiveSnapshots != 0 {
			t.Errorf("POST %s %q left %d snapshot(s) open", target, body, tx.ActiveSnapshots)
		}
	})
}
