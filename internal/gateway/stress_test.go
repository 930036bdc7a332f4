package gateway

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"db2www/internal/cgi"
)

// TestConcurrentMixedWorkload hammers one App from many goroutines with a
// mix of read-only report requests and update macros, checking that every
// response is well-formed and the final row count matches the writes —
// the serialisation contract of the engine's readers-writer locking.
func TestConcurrentMixedWorkload(t *testing.T) {
	_, app := newTestStack(t)
	// An update macro inserting one row per request with a unique key.
	updateMacro := `
%define DATABASE = "CELDIAL"
%SQL{INSERT INTO urldb VALUES ('http://zz-$(KEY)', 't$(KEY)', NULL)%}
%HTML_REPORT{%EXEC_SQL%}
`
	if err := os.WriteFile(filepath.Join(app.MacroDir, "add.d2w"),
		[]byte(updateMacro), 0o644); err != nil {
		t.Fatal(err)
	}

	const (
		readers         = 8
		writers         = 4
		readsPerWorker  = 30
		writesPerWorker = 20
	)
	var wg sync.WaitGroup
	errCh := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsPerWorker; i++ {
				resp, err := app.ServeCGI(&cgi.Request{
					Method: "GET", PathInfo: "/urlquery.d2w/report",
					QueryString: "SEARCH=ib&USE_URL=yes&DBFIELDS=title",
				})
				if err != nil || resp.Status != 200 {
					errCh <- fmt.Errorf("read: status %d err %v", resp.Status, err)
					return
				}
				if !strings.Contains(resp.Body.String(), "URL Query Result") {
					errCh <- fmt.Errorf("read: malformed page")
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < writesPerWorker; i++ {
				resp, err := app.ServeCGI(&cgi.Request{
					Method: "GET", PathInfo: "/add.d2w/report",
					QueryString: fmt.Sprintf("KEY=%d-%d", worker, i),
				})
				if err != nil || resp.Status != 200 {
					errCh <- fmt.Errorf("write: status %d err %v", resp.Status, err)
					return
				}
				if !strings.Contains(resp.Body.String(), "1 row(s) affected") {
					errCh <- fmt.Errorf("write: unexpected body %q", resp.Body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Count rows through the stack itself.
	countMacro := `
%define DATABASE = "CELDIAL"
%SQL{SELECT COUNT(*) AS n FROM urldb WHERE url LIKE 'http://zz-%'
%SQL_REPORT{%ROW{N=$(V1)%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
`
	if err := os.WriteFile(filepath.Join(app.MacroDir, "count.d2w"),
		[]byte(countMacro), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := app.ServeCGI(&cgi.Request{Method: "GET", PathInfo: "/count.d2w/report"})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("N=%d", writers*writesPerWorker)
	if !strings.Contains(resp.Body.String(), want) {
		t.Fatalf("row count: want %s in %q", want, resp.Body)
	}
}
